(** Fixed-size supervised domain worker pool. See the interface.

    Synchronization discipline: the queue, the liveness flag, the
    outstanding-task counter and the dead-worker queue are all guarded by
    [mutex]. Result slots are written by exactly one worker each and read
    by the coordinator only after it has observed [outstanding = 0] under
    the mutex, which orders the writes before the reads. The [workers]
    array and the [respawned] counter are touched only by the
    coordinating domain ({!map}/{!shutdown}).

    Supervision: a worker that dies mid-task (the only cause today is the
    [pool.worker] faultpoint below; a genuinely crashed domain behaves
    the same) first pushes its task back on the queue and its own slot
    index on [dead], then exits. The coordinator, woken through
    [work_done], joins and respawns dead workers before going back to
    sleep, so no task is ever lost and the pool never shrinks. *)

let fp_worker_death =
  Faultpoint.register "pool.worker"
    ~doc:"a worker domain dies after claiming a task; the task is requeued and the supervisor respawns the worker"

type t = {
  size : int;
  mutex : Mutex.t;
  work_ready : Condition.t; (* a task was queued, or the pool is closing *)
  work_done : Condition.t; (* the outstanding counter reached zero, or a worker died *)
  tasks : (unit -> unit) Queue.t;
  dead : int Queue.t; (* slot indices of workers that exited mid-batch *)
  mutable outstanding : int;
  mutable live : bool;
  mutable workers : unit Domain.t option array;
  mutable respawned : int;
}

let default_size () = max 1 (Domain.recommended_domain_count ())

let jobs_of_string s =
  match s with
  | "auto" -> Ok (default_size ())
  | _ -> (
    match int_of_string_opt s with
    | Some n -> Ok (max 1 n)
    | None -> Error (Printf.sprintf "expected an integer or 'auto', got %S" s))

let rec worker_loop t idx =
  Mutex.lock t.mutex;
  while t.live && Queue.is_empty t.tasks do
    Condition.wait t.work_ready t.mutex
  done;
  if Queue.is_empty t.tasks then Mutex.unlock t.mutex (* closing *)
  else begin
    let task = Queue.pop t.tasks in
    Mutex.unlock t.mutex;
    if Faultpoint.fires fp_worker_death then begin
      (* Injected worker-domain death: hand the claimed task back, report
         this slot dead (waking the coordinator so it can heal), and let
         the domain exit. [outstanding] is a count of tasks, not of
         executions, so it is untouched. *)
      Mutex.lock t.mutex;
      Queue.push task t.tasks;
      Queue.push idx t.dead;
      Condition.broadcast t.work_ready;
      Condition.broadcast t.work_done;
      Mutex.unlock t.mutex
    end
    else begin
      (* Tasks catch their own exceptions (see [map]); this handler only
         guards against the counter going out of sync. *)
      (try task () with _ -> ());
      Mutex.lock t.mutex;
      t.outstanding <- t.outstanding - 1;
      if t.outstanding = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mutex;
      worker_loop t idx
    end
  end

let create ?size () =
  let size = max 1 (Option.value size ~default:(default_size ())) in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      tasks = Queue.create ();
      dead = Queue.create ();
      outstanding = 0;
      live = true;
      workers = [||];
      respawned = 0;
    }
  in
  if size > 1 then
    t.workers <- Array.init size (fun i -> Some (Domain.spawn (fun () -> worker_loop t i)));
  t

let size t = t.size
let respawns t = t.respawned

(* Join and replace every worker that reported itself dead. Called with
   [mutex] held; releases it around the joins/spawns (the dying worker
   unlocks before its domain function returns, so joining under the lock
   could stall the queue). *)
let heal_locked t =
  if not (Queue.is_empty t.dead) then begin
    let idxs = ref [] in
    while not (Queue.is_empty t.dead) do
      idxs := Queue.pop t.dead :: !idxs
    done;
    Mutex.unlock t.mutex;
    List.iter
      (fun i ->
        (match t.workers.(i) with Some d -> Domain.join d | None -> ());
        t.workers.(i) <- Some (Domain.spawn (fun () -> worker_loop t i));
        t.respawned <- t.respawned + 1)
      !idxs;
    Mutex.lock t.mutex
  end

let map t f xs =
  if xs = [] then []
  else if Array.length t.workers = 0 then List.map f xs
  else begin
    let inputs = Array.of_list xs in
    let n = Array.length inputs in
    let results = Array.make n None in
    Mutex.lock t.mutex;
    t.outstanding <- t.outstanding + n;
    Array.iteri
      (fun i x ->
        Queue.push
          (fun () ->
            let r = try Ok (f x) with e -> Error e in
            results.(i) <- Some r)
          t.tasks)
      inputs;
    Condition.broadcast t.work_ready;
    while t.outstanding > 0 do
      heal_locked t;
      if t.outstanding > 0 then Condition.wait t.work_done t.mutex
    done;
    (* A worker may have died on the batch's last task (which then ran on
       a sibling): heal before returning so capacity never decays. *)
    heal_locked t;
    Mutex.unlock t.mutex;
    Array.to_list results
    |> List.map (function
         | Some (Ok y) -> y
         | Some (Error e) -> raise e
         | None -> assert false)
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.live <- false;
  Queue.clear t.dead;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  Array.iter (function Some d -> Domain.join d | None -> ()) t.workers;
  t.workers <- [||]
