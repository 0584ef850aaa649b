(** Process-global metrics registry: named counters, gauges and
    histograms.

    Replaces the ad-hoc [Atomic.t] cells that used to be scattered
    through [Sat.Solver], [Relog.Translate], [Echo.Repair]/[Engine] and
    [Incr.Session]. Metrics are created once (get-or-create by name,
    typically at module initialization) and updated lock-free from any
    domain; {!dump} renders one snapshot of the whole stack, which the
    CLI prints under [--stats].

    Histograms are log-bucketed (4 buckets per octave, ~19% relative
    resolution) over positive values; observations ≤ 0 land in a
    dedicated underflow bucket whose representative is 0. Percentiles
    are exact whenever the observed values are bucket representatives
    (powers of [2^(1/4)]), which the tests exploit. *)

type counter
type gauge
type histogram

(** {2 Counters} *)

val counter : string -> counter
(** Get or create. @raise Invalid_argument if the name is already
    registered as a different metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val set_counter : counter -> int -> unit
(** A single atomic store — never torn — but destructive: a concurrent
    {!incr} landing between the caller's read and this store is
    overwritten. *)

(** {2 Gauges} *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Histograms} *)

val histogram : string -> histogram
val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_bucket_total : histogram -> int
(** Sum over all buckets. Equals {!histogram_count} when the histogram
    is quiescent; may differ transiently while observes or a
    {!reset_histogram} are in flight (the invariant is restored once
    they retire — the concurrent-reset test relies on this). *)

val percentile : histogram -> float -> float
(** [percentile h q] with [q] in [\[0, 1\]]: the representative value
    of the bucket containing the [ceil (q * count)]-th smallest
    observation; [0.] on an empty histogram. *)

val reset_histogram : histogram -> unit
(** Drain-based reset, safe against concurrent {!observe}: each bucket
    is atomically exchanged to zero and exactly the drained total is
    subtracted from the count, so no racing observation is half-wiped.
    The count may read negative for an instant mid-race; once racing
    observes retire, [histogram_count h = histogram_bucket_total h]
    again. *)

(** {2 Snapshot} *)

val dump : Format.formatter -> unit -> unit
(** Human-readable snapshot of every registered metric, sorted by
    name: counter values, gauge values, histogram
    count/sum/p50/p90/p99. *)

val to_json : unit -> Json.t

val prometheus_name : string -> string
(** Sanitize a dotted registry name into a valid Prometheus metric
    name: characters outside [[a-zA-Z0-9_:]] become ['_'], and a
    leading digit gains an ['_'] prefix. *)

val to_prometheus : unit -> string
(** Render the whole registry in Prometheus text exposition format
    0.0.4: one [# TYPE] line per metric, counters and gauges as single
    samples, histograms as cumulative [_bucket{le="..."}] series
    (bucket representatives as [le] bounds, empty buckets elided) plus
    [_bucket{le="+Inf"}], [_sum] and [_count]. The [+Inf] bucket and
    [_count] are derived from one bucket snapshot, so they always
    agree even when a scrape races live observations. *)
