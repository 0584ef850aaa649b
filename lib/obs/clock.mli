(** Monotonic time source shared by the whole stack.

    Every span, telemetry timer, server queue/service duration and
    bench measurement reads this clock, so durations can never go
    negative or jump under NTP steps or manual clock adjustment (the
    failure mode of [Unix.gettimeofday]).

    The origin is unspecified — only differences between two [now]
    readings are meaningful. *)

val now : unit -> float
(** Seconds on a monotonic clock ([clock_gettime(CLOCK_MONOTONIC)]).
    The native call is allocation-free. *)

val since : float -> float
(** [since t0] is [now () -. t0]. *)
