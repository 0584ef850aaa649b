type event = {
  ph : [ `Begin | `End | `Instant | `Counter ];
  name : string;
  ts : float;
  tid : int;
  id : int;
  parent : int;
  args : (string * Json.t) list;
}

let dummy_event =
  { ph = `Instant; name = ""; ts = 0.; tid = 0; id = 0; parent = 0; args = [] }

(* Per-domain buffer. Only the owning domain ever mutates it (recording
   is lock-free); [events]/[clear] read other domains' buffers and are
   documented as quiescent-only. *)
type buf = {
  b_tid : int;
  mutable b_events : event array;
  mutable b_len : int;
  mutable b_stack : int list;  (* open span ids, innermost first *)
  mutable b_ctx : int;  (* parent context installed by [with_context] *)
}

let enabled_flag = Atomic.make false
let next_id = Atomic.make 1
let registry : buf list ref = ref []
let registry_mutex = Mutex.create ()

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          b_tid = (Domain.self () :> int);
          b_events = Array.make 256 dummy_event;
          b_len = 0;
          b_stack = [];
          b_ctx = 0;
        }
      in
      Mutex.lock registry_mutex;
      registry := b :: !registry;
      Mutex.unlock registry_mutex;
      b)

let local_buf () = Domain.DLS.get buf_key

let push b e =
  let n = Array.length b.b_events in
  if b.b_len = n then begin
    let bigger = Array.make (2 * n) dummy_event in
    Array.blit b.b_events 0 bigger 0 n;
    b.b_events <- bigger
  end;
  b.b_events.(b.b_len) <- e;
  b.b_len <- b.b_len + 1

let set_enabled on = Atomic.set enabled_flag on
let enabled () = Atomic.get enabled_flag

let clear () =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  List.iter (fun b -> b.b_len <- 0) bufs

type context = int

let current () =
  if not (Atomic.get enabled_flag) then 0
  else
    let b = local_buf () in
    match b.b_stack with p :: _ -> p | [] -> b.b_ctx

let with_context ctx f =
  if ctx = 0 && not (Atomic.get enabled_flag) then f ()
  else begin
    let b = local_buf () in
    let old = b.b_ctx in
    b.b_ctx <- ctx;
    Fun.protect ~finally:(fun () -> b.b_ctx <- old) f
  end

let with_span ?args ~name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = local_buf () in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match b.b_stack with p :: _ -> p | [] -> b.b_ctx in
    let args = match args with None -> [] | Some mk -> mk () in
    push b
      { ph = `Begin; name; ts = Clock.now (); tid = b.b_tid; id; parent; args };
    b.b_stack <- id :: b.b_stack;
    Fun.protect
      ~finally:(fun () ->
        (match b.b_stack with _ :: rest -> b.b_stack <- rest | [] -> ());
        push b
          {
            ph = `End;
            name;
            ts = Clock.now ();
            tid = b.b_tid;
            id = 0;
            parent = 0;
            args = [];
          })
      f
  end

let instant ?args name =
  if Atomic.get enabled_flag then begin
    let b = local_buf () in
    let parent = match b.b_stack with p :: _ -> p | [] -> b.b_ctx in
    let args = match args with None -> [] | Some mk -> mk () in
    push b
      {
        ph = `Instant;
        name;
        ts = Clock.now ();
        tid = b.b_tid;
        id = 0;
        parent;
        args;
      }
  end

let counter name values =
  if Atomic.get enabled_flag then begin
    let b = local_buf () in
    push b
      {
        ph = `Counter;
        name;
        ts = Clock.now ();
        tid = b.b_tid;
        id = 0;
        parent = 0;
        args = List.map (fun (k, v) -> (k, Json.Float v)) values;
      }
  end

let events () =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  let all =
    List.concat_map
      (fun b -> Array.to_list (Array.sub b.b_events 0 b.b_len))
      bufs
  in
  List.stable_sort (fun a b -> Float.compare a.ts b.ts) all

(* ------------------------------------------------------------------ *)
(* Sinks.                                                              *)

let us t0 ts = (ts -. t0) *. 1e6

let chrome_event t0 e =
  let base =
    [
      ("pid", Json.Int 1); ("tid", Json.Int e.tid); ("ts", Json.Float (us t0 e.ts));
    ]
  in
  match e.ph with
  | `Begin ->
    let args =
      ("span", Json.Int e.id)
      :: (if e.parent <> 0 then [ ("parent", Json.Int e.parent) ] else [])
      @ e.args
    in
    Json.Obj
      (("ph", Json.String "B") :: ("name", Json.String e.name)
      :: ("args", Json.Obj args) :: base)
  | `End -> Json.Obj (("ph", Json.String "E") :: base)
  | `Instant ->
    Json.Obj
      (("ph", Json.String "i") :: ("s", Json.String "t")
      :: ("name", Json.String e.name) :: ("args", Json.Obj e.args) :: base)
  | `Counter ->
    Json.Obj
      (("ph", Json.String "C") :: ("name", Json.String e.name)
      :: ("args", Json.Obj e.args) :: base)

let metadata_events tids =
  Json.Obj
    [
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("name", Json.String "process_name");
      ("args", Json.Obj [ ("name", Json.String "mdqvtr") ]);
    ]
  :: List.concat_map
       (fun tid ->
         [
           Json.Obj
             [
               ("ph", Json.String "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int tid);
               ("name", Json.String "thread_name");
               ( "args",
                 Json.Obj
                   [
                     ( "name",
                       Json.String
                         (if tid = 0 then "main" else Printf.sprintf "domain %d" tid)
                     );
                   ] );
             ];
           Json.Obj
             [
               ("ph", Json.String "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int tid);
               ("name", Json.String "thread_sort_index");
               ("args", Json.Obj [ ("sort_index", Json.Int tid) ]);
             ];
         ])
       tids

(* Flow arrows for cross-domain parent handoffs: when a span's parent
   lives on another track, emit a start/finish flow pair so Perfetto
   draws the arrow from submitter to worker. *)
let flow_events t0 evs =
  let span_tid = Hashtbl.create 64 in
  List.iter (fun e -> if e.ph = `Begin then Hashtbl.replace span_tid e.id e.tid) evs;
  List.concat_map
    (fun e ->
      if e.ph <> `Begin || e.parent = 0 then []
      else
        match Hashtbl.find_opt span_tid e.parent with
        | Some ptid when ptid <> e.tid ->
          let common =
            [
              ("cat", Json.String "handoff");
              ("id", Json.Int e.id);
              ("name", Json.String "handoff");
              ("pid", Json.Int 1);
              ("ts", Json.Float (us t0 e.ts));
            ]
          in
          [
            Json.Obj (("ph", Json.String "s") :: ("tid", Json.Int ptid) :: common);
            Json.Obj
              (("ph", Json.String "f") :: ("bp", Json.String "e")
              :: ("tid", Json.Int e.tid) :: common);
          ]
        | _ -> [])
    evs

let export_chrome path =
  let evs = events () in
  let t0 = match evs with [] -> 0. | e :: _ -> e.ts in
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.tid) evs)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      let first = ref true in
      let emit j =
        if !first then first := false else output_string oc ",\n";
        output_string oc (Json.to_string j)
      in
      List.iter emit (metadata_events tids);
      List.iter emit (flow_events t0 evs);
      List.iter (fun e -> emit (chrome_event t0 e)) evs;
      output_string oc "]}\n")

let jsonl_event e =
  let ph =
    match e.ph with `Begin -> "B" | `End -> "E" | `Instant -> "i" | `Counter -> "C"
  in
  Json.Obj
    [
      ("ph", Json.String ph);
      ("name", Json.String e.name);
      ("ts", Json.Float e.ts);
      ("tid", Json.Int e.tid);
      ("span", Json.Int e.id);
      ("parent", Json.Int e.parent);
      ("args", Json.Obj e.args);
    ]

let export_jsonl path =
  let evs = events () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (Json.to_string (jsonl_event e));
          output_char oc '\n')
        evs)

(* MDQVTR_TRACE_LOG=FILE: trace the whole process and flush a JSONL
   event log at exit. *)
let () =
  match Sys.getenv_opt "MDQVTR_TRACE_LOG" with
  | Some path when path <> "" ->
    set_enabled true;
    at_exit (fun () -> try export_jsonl path with Sys_error _ -> ())
  | _ -> ()
