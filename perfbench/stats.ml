(* Order statistics over raw samples.

   Every latency the benchmark reports is computed here from the
   individual measurements, never from the log-bucketed
   [Obs.Metrics] histograms (whose representatives carry ~19% error). *)

(* [ceil (q * n)], immune to products like 0.9 * 70 = 63.00000000000001. *)
let rank n q = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile: the smallest sample such that at least a
   fraction [q] of the samples are <= it, i.e. the [ceil (q * n)]-th
   smallest. Always an observed value; [nan] on no samples. *)
let percentile samples q =
  if not (q > 0. && q <= 1.) then invalid_arg "Stats.percentile: q outside (0, 1]";
  let n = Array.length samples in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    sorted.(max 1 (min n (rank n q)) - 1)
  end

let median samples = percentile samples 0.5

(* How many samples lie strictly above the rank [percentile] picks —
   the evidence behind a tail percentile. *)
let beyond n q = n - rank n q
