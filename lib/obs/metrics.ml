type counter = { c_name : string; c : int Atomic.t }
type gauge = { g_name : string; g : float Atomic.t }

(* Log-scale buckets: 4 per octave. Bucket 0 is the underflow bucket
   (observations <= 0); bucket [i > 0] covers values whose
   [round (log2 v * 4)] equals [i - bucket_offset], i.e. its
   representative is [2 ** ((i - bucket_offset) / 4)]. The range spans
   roughly 1e-10 .. 1e9 before clamping to the end buckets. *)
let buckets_per_octave = 4
let bucket_offset = 136 (* covers log2 v down to -135/4 ~ 1e-10 *)
let n_buckets = 264

type histogram = {
  h_name : string;
  h_buckets : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let get_or_create name make describe =
  Mutex.lock registry_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mutex)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.add registry name m;
        ignore describe;
        m)

let counter name =
  match
    get_or_create name (fun () -> Counter { c_name = name; c = Atomic.make 0 }) "counter"
  with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Obs.Metrics.counter: %S is not a counter" name)

let incr c = ignore (Atomic.fetch_and_add c.c 1)
let add c n = ignore (Atomic.fetch_and_add c.c n)
let counter_value c = Atomic.get c.c

(* A single atomic store, so the counter is never torn — but it is
   still a destructive write: an [incr] that lands between the
   caller's read and this store is overwritten. *)
let set_counter c n = Atomic.set c.c n

let gauge name =
  match
    get_or_create name (fun () -> Gauge { g_name = name; g = Atomic.make 0. }) "gauge"
  with
  | Gauge g -> g
  | _ -> invalid_arg (Printf.sprintf "Obs.Metrics.gauge: %S is not a gauge" name)

let set_gauge g v = Atomic.set g.g v
let gauge_value g = Atomic.get g.g

let atomic_add_float a x =
  let rec go () =
    let old = Atomic.get a in
    if not (Atomic.compare_and_set a old (old +. x)) then go ()
  in
  go ()

(* Two runs of fresh atomics, neither over 256 long, joined by
   [Array.append], which copies without forcing a collection. One
   [Array.init] of all [n_buckets] would allocate in the major heap
   over a young first atomic, and OCaml 5 forces a stop-the-world
   minor collection to promote it first. *)
let new_buckets () =
  let half = n_buckets / 2 in
  Array.append
    (Array.init half (fun _ -> Atomic.make 0))
    (Array.init (n_buckets - half) (fun _ -> Atomic.make 0))

let histogram name =
  match
    get_or_create name
      (fun () ->
        Histogram
          {
            h_name = name;
            h_buckets = new_buckets ();
            h_count = Atomic.make 0;
            h_sum = Atomic.make 0.;
          })
      "histogram"
  with
  | Histogram h -> h
  | _ ->
    invalid_arg (Printf.sprintf "Obs.Metrics.histogram: %S is not a histogram" name)

let bucket_of v =
  if v <= 0. || Float.is_nan v then 0
  else
    let i =
      bucket_offset
      + int_of_float
          (Float.round (Float.log2 v *. float_of_int buckets_per_octave))
    in
    if i < 1 then 1 else if i >= n_buckets then n_buckets - 1 else i

let representative i =
  if i = 0 then 0.
  else
    Float.pow 2.
      (float_of_int (i - bucket_offset) /. float_of_int buckets_per_octave)

let observe h v =
  ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add h.h_count 1);
  atomic_add_float h.h_sum v

let histogram_count h = Atomic.get h.h_count

let histogram_bucket_total h =
  Array.fold_left (fun acc b -> acc + Atomic.get b) 0 h.h_buckets

let histogram_sum h = Atomic.get h.h_sum

let percentile h q =
  let count = histogram_count h in
  if count <= 0 then 0.
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank =
      let r = int_of_float (Float.of_int count *. q +. 0.999999) in
      if r < 1 then 1 else if r > count then count else r
    in
    let rec go i cum =
      if i >= n_buckets then representative (n_buckets - 1)
      else
        let cum = cum + Atomic.get h.h_buckets.(i) in
        if cum >= rank then representative i else go (i + 1) cum
    in
    go 0 0
  end

(* Reset by draining, not by storing zeros. The old implementation
   ([Atomic.set b 0] on every cell, then [h_count := 0]) had a
   read-modify-write window: an [observe] racing the reset could bump
   a bucket that had already been zeroed and then have its count
   increment wiped — leaving the bucket total permanently above the
   count, which skews every later percentile. Exchanging each bucket
   to zero and subtracting exactly the drained total from the count
   closes that window: a racing observe either lands before the
   exchange (drained, and its count increment cancels against the
   subtraction) or after it (survives the reset whole). The count may
   read transiently negative mid-race — [percentile] treats that as
   empty — but once the racing observes retire,
   [histogram_count h = histogram_bucket_total h] again. The sum is a
   single exchange: exact when quiescent, weakly consistent (off by
   at most the racing observations) under concurrency. *)
let reset_histogram h =
  let removed = ref 0 in
  Array.iter (fun b -> removed := !removed + Atomic.exchange b 0) h.h_buckets;
  ignore (Atomic.fetch_and_add h.h_count (- !removed));
  ignore (Atomic.exchange h.h_sum 0.)

let snapshot () =
  Mutex.lock registry_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mutex)
    (fun () ->
      Hashtbl.fold (fun _ m acc -> m :: acc) registry []
      |> List.sort (fun a b ->
             let name = function
               | Counter c -> c.c_name
               | Gauge g -> g.g_name
               | Histogram h -> h.h_name
             in
             compare (name a) (name b)))

let dump ppf () =
  let ms = snapshot () in
  Format.fprintf ppf "@[<v>metrics:";
  List.iter
    (fun m ->
      match m with
      | Counter c ->
        Format.fprintf ppf "@,  %-42s %d" c.c_name (counter_value c)
      | Gauge g -> Format.fprintf ppf "@,  %-42s %g" g.g_name (gauge_value g)
      | Histogram h ->
        Format.fprintf ppf
          "@,  %-42s count %d  sum %g  p50 %g  p90 %g  p99 %g" h.h_name
          (histogram_count h) (histogram_sum h) (percentile h 0.5)
          (percentile h 0.9) (percentile h 0.99))
    ms;
  Format.fprintf ppf "@]"

let to_json () =
  let ms = snapshot () in
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) m ->
        match m with
        | Counter c -> ((c.c_name, Json.Int (counter_value c)) :: cs, gs, hs)
        | Gauge g -> (cs, (g.g_name, Json.Float (gauge_value g)) :: gs, hs)
        | Histogram h ->
          ( cs,
            gs,
            ( h.h_name,
              Json.Obj
                [
                  ("count", Json.Int (histogram_count h));
                  ("sum", Json.Float (histogram_sum h));
                  ("p50", Json.Float (percentile h 0.5));
                  ("p90", Json.Float (percentile h 0.9));
                  ("p99", Json.Float (percentile h 0.99));
                ] )
            :: hs ))
      ([], [], []) ms
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.rev counters));
      ("gauges", Json.Obj (List.rev gauges));
      ("histograms", Json.Obj (List.rev histograms));
    ]

(* ---- Prometheus text exposition (format 0.0.4) ---------------------- *)

(* Metric names in this registry are dotted ("server.latency.check_s");
   Prometheus names must match [a-zA-Z_:][a-zA-Z0-9_:]*. Map every
   invalid character to '_' and prefix an underscore when the first
   character is a digit. The mapping is not injective in general, but
   the registry's dotted names collide only if they already differed
   solely by separator, which we do not do. *)
let prometheus_name name =
  let n = String.length name in
  let b = Buffer.create (n + 1) in
  String.iteri
    (fun i ch ->
      let ok =
        (ch >= 'a' && ch <= 'z')
        || (ch >= 'A' && ch <= 'Z')
        || ch = '_' || ch = ':'
        || (ch >= '0' && ch <= '9')
      in
      if i = 0 && ch >= '0' && ch <= '9' then Buffer.add_char b '_';
      Buffer.add_char b (if ok then ch else '_'))
    name;
  if Buffer.length b = 0 then "_" else Buffer.contents b

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" v

let to_prometheus () =
  let b = Buffer.create 4096 in
  List.iter
    (fun m ->
      match m with
      | Counter c ->
        let name = prometheus_name c.c_name in
        Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" name);
        Buffer.add_string b (Printf.sprintf "%s %d\n" name (counter_value c))
      | Gauge g ->
        let name = prometheus_name g.g_name in
        Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name);
        Buffer.add_string b
          (Printf.sprintf "%s %s\n" name (prom_float (gauge_value g)))
      | Histogram h ->
        let name = prometheus_name h.h_name in
        Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" name);
        (* Read the buckets once and derive every series from that one
           snapshot, so the exposition is internally consistent even if
           observes race the scrape: the +Inf bucket, [_count], and the
           per-bucket cumulative sums all agree. *)
        let counts = Array.map Atomic.get h.h_buckets in
        let cum = ref 0 in
        Array.iteri
          (fun i n ->
            if n > 0 then begin
              cum := !cum + n;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name
                   (prom_float (representative i))
                   !cum)
            end)
          counts;
        let total = Array.fold_left ( + ) 0 counts in
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name total);
        Buffer.add_string b
          (Printf.sprintf "%s_sum %s\n" name (prom_float (histogram_sum h)));
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" name total))
    (snapshot ());
  Buffer.contents b
