type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  fmu : Mutex.t;
  fcond : Condition.t;
  mutable st : 'a state;
}

let resolve fut st =
  Mutex.lock fut.fmu;
  fut.st <- st;
  Condition.broadcast fut.fcond;
  Mutex.unlock fut.fmu

let result fut =
  Mutex.lock fut.fmu;
  let rec wait () =
    match fut.st with
    | Pending ->
      Condition.wait fut.fcond fut.fmu;
      wait ()
    | Done v -> Ok v
    | Failed e -> Error e
  in
  let r = wait () in
  Mutex.unlock fut.fmu;
  r

let await fut = match result fut with Ok v -> v | Error e -> raise e

(* Each task carries the trace context of its submitter so spans opened
   inside the task attach to the submitting span even though they run
   (and render) on the worker's own domain track. *)
type task = Task : (unit -> 'a) * 'a future * Obs.Trace.context -> task

type t = {
  njobs : int;
  mu : Mutex.t;
  nonempty : Condition.t;
  queue : task Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()
let jobs t = t.njobs

let run_task (Task (fn, fut, ctx)) =
  match Obs.Trace.with_context ctx fn with
  | v -> resolve fut (Done v)
  | exception e -> resolve fut (Failed e)

let worker t =
  let rec loop () =
    Mutex.lock t.mu;
    let rec next () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if t.closed then None
      else begin
        Condition.wait t.nonempty t.mu;
        next ()
      end
    in
    let task = next () in
    Mutex.unlock t.mu;
    match task with
    | Some task ->
      run_task task;
      loop ()
    | None -> ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      njobs = jobs;
      mu = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [];
    }
  in
  if jobs > 1 then
    t.domains <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
  t

let submit t fn =
  let fut = { fmu = Mutex.create (); fcond = Condition.create (); st = Pending } in
  let ctx = Obs.Trace.current () in
  if t.njobs = 1 then begin
    if t.closed then invalid_arg "Pool.submit: pool is shut down";
    run_task (Task (fn, fut, ctx))
  end
  else begin
    Mutex.lock t.mu;
    if t.closed then begin
      Mutex.unlock t.mu;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    Queue.push (Task (fn, fut, ctx)) t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mu
  end;
  fut

let shutdown t =
  Mutex.lock t.mu;
  let ds = t.domains in
  t.closed <- true;
  t.domains <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mu;
  List.iter Domain.join ds
