type t = {
  njobs : int;
  mu : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()
let jobs t = t.njobs

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
      task ();
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

(* A task carries the trace context of its submitter so spans opened
   inside it attach to the submitting span even though they run (and
   render) on the worker's own domain track. Nobody waits on a task, so
   an exception it raises ends it and nothing else. *)
let submit t fn =
  let ctx = Obs.Trace.current () in
  let task () = try Obs.Trace.with_context ctx fn with _ -> () in
  if t.njobs = 1 then begin
    if t.closed then invalid_arg "Pool.submit: pool is shut down";
    task ()
  end
  else begin
    Mutex.lock t.mu;
    if t.closed then begin
      Mutex.unlock t.mu;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    Queue.push task t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mu
  end

let shutdown t =
  Mutex.lock t.mu;
  let ds = t.domains in
  t.closed <- true;
  t.domains <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mu;
  List.iter Domain.join ds
