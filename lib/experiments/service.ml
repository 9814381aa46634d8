(* The experiment service: daemon event loop + client calls. See the mli
   for the architecture overview. *)

open Wish_util
module J = Perf_json

let protocol_version = 1

type spec = {
  sp_artifacts : string list;
  sp_scale : int;
  sp_benchmarks : string list;
  sp_sample : string option;
}

(* ---------- JSON field access ---------- *)

let sfield j k = match J.member k j with Some (J.String s) -> Some s | _ -> None
let ifield j k = match J.member k j with Some (J.Int i) -> Some i | _ -> None
let lfield j k = match J.member k j with Some (J.List l) -> Some l | _ -> None
let strings_of l = List.filter_map (function J.String s -> Some s | _ -> None) l
let jstrings ss = J.List (List.map (fun s -> J.String s) ss)
let err_msg msg = J.Obj [ ("type", J.String "error"); ("message", J.String msg) ]

(* ---------- artifact catalog ---------- *)

let catalog = lazy (Figures.all @ Figures.extras @ Ablations.all)
let find_artifact name = List.assoc_opt name (Lazy.force catalog)

let jobs_for name lab =
  match Figures.jobs_for name lab with
  | [] -> Ablations.jobs_for name lab
  | js -> js

let sampling_of_string = function
  | None -> Ok None
  | Some "auto" -> Ok (Some Lab.Sample_auto)
  | Some s -> (
    match Wish_sim.Sampler.of_string s with
    | Ok sp -> Ok (Some (Lab.Sample_spec sp))
    | Error e -> Error (Printf.sprintf "bad sample spec %S: %s" s e))

let describe_job j =
  Printf.sprintf "%s/%s input %s" j.Lab.job_bench
    (Wish_compiler.Policy.kind_name j.Lab.job_kind)
    j.Lab.job_input

(* ---------- worker side ---------- *)

(* What the daemon marshals down a worker pipe: everything a serial lab
   needs to recompute (and persist) one summary. All fields are plain
   data, so [Marshal] round-trips them between forked copies of the same
   binary. *)
type wire_job = {
  wj_scale : int;
  wj_sample : string option;
  wj_bench : string;
  wj_kind : Wish_compiler.Policy.kind;
  wj_input : string;
  wj_config : Wish_sim.Config.t;
}

(* Runs in each forked worker. Labs are kept per (scale, sample, bench)
   — single-bench, so a worker builds only the benchmarks it is actually
   handed — and compiled binaries stay memoized across jobs;
   every lab shares the daemon's cache directory, whose atomic
   temp+rename writes make concurrent worker processes safe. The summary
   itself travels back to the daemon through that cache — the result
   frame only says whether the job succeeded. *)
let make_worker_handler ~cache_dir () =
  let labs : (string, Lab.t) Hashtbl.t = Hashtbl.create 4 in
  fun payload ->
    let result =
      try
        let wj : wire_job = Marshal.from_string payload 0 in
        let lkey =
          Printf.sprintf "%d|%s|%s" wj.wj_scale
            (Option.value wj.wj_sample ~default:"<exact>")
            wj.wj_bench
        in
        let lab =
          match Hashtbl.find_opt labs lkey with
          | Some lab -> lab
          | None ->
            let sample =
              match sampling_of_string wj.wj_sample with
              | Ok s -> s
              | Error e -> failwith e
            in
            let cache = Cache.create ~dir:cache_dir () in
            let lab =
              Lab.create ~scale:wj.wj_scale ~names:[ wj.wj_bench ] ?sample ~cache ()
            in
            Hashtbl.replace labs lkey lab;
            lab
        in
        ignore
          (Lab.run lab ~bench:wj.wj_bench ~kind:wj.wj_kind ~input:wj.wj_input
             ~config:wj.wj_config ());
        Ok ()
      with e -> Error (Printexc.to_string e)
    in
    Marshal.to_string (result : (unit, string) result) []

(* ---------- daemon state ---------- *)

type conn = {
  c_fd : Unix.file_descr;
  mutable c_alive : bool;
  mutable c_req : request option;
}

and request = {
  r_conn : conn;
  r_lab : Lab.t;
  r_arts : artifact_state array;  (* in client print order *)
  mutable r_unqueued : jobrec list;  (* led jobs awaiting the ready queue *)
  mutable r_closed : bool;
  mutable r_dedup : int;
  mutable r_cache : int;
  mutable r_computed : int;
}

and artifact_state = {
  a_name : string;
  mutable a_total : int;
  mutable a_done : int;
  mutable a_sent : bool;
}

and jobrec = {
  j_key : string;  (* Lab.summary_key_of_job — the single-flight identity *)
  j_payload : string;  (* marshalled wire_job *)
  j_what : string;
  j_shard : int;  (* benchmark's worker slot: affinity keeps lab caches hot *)
  mutable j_waits : int;  (* dispatch sweeps spent waiting on a busy shard *)
  mutable j_attempts : int;
  mutable j_subs : (request * int * string) list;  (* req, artifact ix, via *)
}

type daemon = {
  d_listen : Unix.file_descr;
  d_pool : Procpool.t;
  d_queue_bound : int;
  d_cache : Cache.t;
  mutable d_conns : conn list;
  mutable d_reqs : request list;  (* active, arrival order *)
  d_inflight : (string, jobrec) Hashtbl.t;  (* single-flight table *)
  d_done : (string, unit) Hashtbl.t;  (* completed keys, daemon lifetime *)
  d_ready : jobrec Queue.t;  (* bounded by d_queue_bound on refill *)
  d_tickets : (int, jobrec) Hashtbl.t;  (* dispatched, by pool ticket *)
  d_labs : (string, Lab.t) Hashtbl.t;  (* render labs, serial + cache-backed *)
  d_shards : (string, int) Hashtbl.t;  (* benchmark -> worker slot *)
  mutable d_next_shard : int;
  d_log : string -> unit;
  mutable d_stop : bool;
  mutable d_requests : int;
  mutable d_jobs_requested : int;
  mutable d_dedup_hits : int;
  mutable d_cache_hits : int;
  mutable d_computed : int;
}

(* Benchmarks are assigned worker slots round-robin on first sight —
   unlike hashing, distinct benchmarks never collide until every worker
   already owns one, so the per-bench labs (and the binaries they have
   compiled) stay both hot and evenly spread. *)
let shard_of d bench =
  match Hashtbl.find_opt d.d_shards bench with
  | Some s -> s
  | None ->
    let s = d.d_next_shard in
    d.d_next_shard <- s + 1;
    Hashtbl.replace d.d_shards bench s;
    s

let cache_has d key =
  match
    (Cache.find d.d_cache ~kind:"summary" ~key : Wish_sim.Runner.summary option)
  with
  | Some _ -> true
  | None -> false

(* Jobs a departing request led but never queued: hand them to surviving
   subscribers via the ready queue, or cancel them outright. *)
let release_unqueued d req =
  let jobs = req.r_unqueued in
  req.r_unqueued <- [];
  List.iter
    (fun jr ->
      let live =
        List.exists
          (fun (r, _, _) -> r != req && (not r.r_closed) && r.r_conn.c_alive)
          jr.j_subs
      in
      if live then Queue.push jr d.d_ready
      else Hashtbl.remove d.d_inflight jr.j_key)
    jobs

let retire_request d req =
  req.r_closed <- true;
  d.d_reqs <- List.filter (fun r -> r != req) d.d_reqs;
  req.r_conn.c_req <- None;
  release_unqueued d req

let drop_conn d conn =
  if conn.c_alive then begin
    conn.c_alive <- false;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    d.d_conns <- List.filter (fun c -> c != conn) d.d_conns;
    match conn.c_req with Some req -> retire_request d req | None -> ()
  end

let safe_send d conn v =
  if conn.c_alive then
    try Framing.send conn.c_fd v
    with _ ->
      d.d_log "svc: dropping torn connection";
      drop_conn d conn

let finish_request d req =
  if not req.r_closed then begin
    retire_request d req;
    safe_send d req.r_conn
      (J.Obj
         [
           ("type", J.String "done");
           ("dedup", J.Int req.r_dedup);
           ("cache", J.Int req.r_cache);
           ("computed", J.Int req.r_computed);
         ])
  end

let fail_request d req msg =
  if not req.r_closed then begin
    retire_request d req;
    safe_send d req.r_conn (err_msg msg)
  end

(* Render one artifact's table through the request's serial lab. Workers
   persisted every summary before acknowledging, so the generator's runs
   are cache reads and the text matches a local run byte for byte. *)
let render_artifact d req ix =
  let a = req.r_arts.(ix) in
  match find_artifact a.a_name with
  | None -> fail_request d req (Printf.sprintf "unknown artifact %S" a.a_name)
  | Some gen -> (
    match gen req.r_lab with
    | table ->
      a.a_sent <- true;
      d.d_log (Printf.sprintf "svc: table sent: %s" a.a_name);
      safe_send d req.r_conn
        (J.Obj
           [
             ("type", J.String "table");
             ("artifact", J.String a.a_name);
             ("text", J.String (Table.render table));
             ("csv", J.String (Table.to_csv table));
           ])
    | exception e ->
      fail_request d req
        (Printf.sprintf "rendering %s failed: %s" a.a_name (Printexc.to_string e)))

(* Stream tables strictly in request order: render the first unsent
   artifact whose jobs are all done, repeat, finish when all are out. *)
let advance_request d req =
  if not req.r_closed then begin
    let n = Array.length req.r_arts in
    let rec loop ix =
      if ix >= n then finish_request d req
      else
        let a = req.r_arts.(ix) in
        if a.a_sent then loop (ix + 1)
        else if a.a_done >= a.a_total then begin
          render_artifact d req ix;
          if (not req.r_closed) && a.a_sent then loop (ix + 1)
        end
    in
    loop 0
  end

let deliver_row d req ix via what =
  if (not req.r_closed) && req.r_conn.c_alive then begin
    let a = req.r_arts.(ix) in
    a.a_done <- a.a_done + 1;
    (match via with
    | "dedup" -> req.r_dedup <- req.r_dedup + 1
    | "cache" -> req.r_cache <- req.r_cache + 1
    | _ -> req.r_computed <- req.r_computed + 1);
    safe_send d req.r_conn
      (J.Obj
         [
           ("type", J.String "job");
           ("artifact", J.String a.a_name);
           ("what", J.String what);
           ("via", J.String via);
           ("done", J.Int a.a_done);
           ("total", J.Int a.a_total);
         ])
  end

let complete_job d jr =
  Hashtbl.remove d.d_inflight jr.j_key;
  Hashtbl.replace d.d_done jr.j_key ();
  d.d_computed <- d.d_computed + 1;
  d.d_log (Printf.sprintf "svc: job done: %s (%d subscriber(s))" jr.j_what
       (List.length jr.j_subs));
  let subs = List.rev jr.j_subs in
  jr.j_subs <- [];
  List.iter (fun (req, ix, via) -> deliver_row d req ix via jr.j_what) subs;
  let advanced = ref [] in
  List.iter
    (fun (req, _, _) ->
      if not (List.memq req !advanced) then begin
        advanced := req :: !advanced;
        advance_request d req
      end)
    subs

let job_failed d jr msg =
  Hashtbl.remove d.d_inflight jr.j_key;
  let subs = jr.j_subs in
  jr.j_subs <- [];
  List.iter
    (fun (req, _, _) ->
      fail_request d req (Printf.sprintf "job %s failed: %s" jr.j_what msg))
    subs

(* ---------- scheduler ---------- *)

(* Refill the bounded ready queue one job per active request per sweep —
   round-robin, so a giant request cannot starve a small one. *)
let refill d =
  let continue = ref true in
  while !continue && Queue.length d.d_ready < d.d_queue_bound do
    match List.filter (fun r -> r.r_unqueued <> []) d.d_reqs with
    | [] -> continue := false
    | pending ->
      List.iter
        (fun r ->
          if Queue.length d.d_ready < d.d_queue_bound then
            match r.r_unqueued with
            | [] -> ()
            | jr :: rest ->
              r.r_unqueued <- rest;
              Queue.push jr d.d_ready)
        pending
  done

(* Sweep the ready queue, submitting each job to its benchmark's shard
   worker. A job whose shard is busy rotates to the back rather than
   blocking jobs bound for idle shards; after [overflow_waits] fruitless
   sweeps it may spill to any idle worker — the thief pays one cold lab
   build, which beats serializing a backed-up shard (and is how a
   respawned worker's backlog drains through its warm siblings). Sweeps
   repeat while submissions land, so a freed worker is refilled within
   the same pump; a job left waiting is retried on the next event. *)
let overflow_waits = 4

let dispatch d =
  let progress = ref true in
  while !progress && Procpool.idle d.d_pool > 0 do
    progress := false;
    refill d;
    let n = Queue.length d.d_ready in
    for _ = 1 to n do
      let jr = Queue.pop d.d_ready in
      if Hashtbl.mem d.d_inflight jr.j_key then begin
        let submitted =
          match Procpool.try_submit_to d.d_pool jr.j_shard jr.j_payload with
          | Some ticket -> Some ticket
          | None when jr.j_waits >= overflow_waits ->
            Procpool.try_submit d.d_pool jr.j_payload
          | None -> None
        in
        match submitted with
        | Some ticket ->
          Hashtbl.replace d.d_tickets ticket jr;
          progress := true
        | None ->
          jr.j_waits <- jr.j_waits + 1;
          Queue.push jr d.d_ready
      end
    done
  done

let pump d =
  refill d;
  dispatch d

let max_job_attempts = 3

let handle_worker_event d ev =
  (match ev with
  | Procpool.Result (ticket, payload) -> (
    match Hashtbl.find_opt d.d_tickets ticket with
    | None -> ()
    | Some jr -> (
      Hashtbl.remove d.d_tickets ticket;
      match (Marshal.from_string payload 0 : (unit, string) result) with
      | Ok () -> complete_job d jr
      | Error msg ->
        jr.j_attempts <- jr.j_attempts + 1;
        if jr.j_attempts < max_job_attempts then begin
          d.d_log (Printf.sprintf "svc: retrying %s (%s)" jr.j_what msg);
          Queue.push jr d.d_ready
        end
        else job_failed d jr msg
      | exception _ -> job_failed d jr "unreadable worker result"))
  | Procpool.Died ticket -> (
    d.d_log "svc: worker died; requeueing its job";
    match ticket with
    | None -> ()
    | Some t -> (
      match Hashtbl.find_opt d.d_tickets t with
      | None -> ()
      | Some jr ->
        Hashtbl.remove d.d_tickets t;
        Queue.push jr d.d_ready)));
  pump d

(* ---------- request intake ---------- *)

let spec_of_json j =
  match Option.map strings_of (lfield j "artifacts") with
  | None | Some [] -> Error "run request needs a non-empty artifacts list"
  | Some sp_artifacts ->
    Ok
      {
        sp_artifacts;
        sp_scale = Option.value (ifield j "scale") ~default:1;
        sp_benchmarks =
          Option.value (Option.map strings_of (lfield j "benchmarks")) ~default:[];
        sp_sample = sfield j "sample";
      }

let validate_spec spec =
  match List.find_opt (fun a -> find_artifact a = None) spec.sp_artifacts with
  | Some a -> Error (Printf.sprintf "unknown artifact %S" a)
  | None -> (
    match
      List.find_opt
        (fun b -> not (List.mem b Wish_workloads.Workloads.names))
        spec.sp_benchmarks
    with
    | Some b -> Error (Printf.sprintf "unknown benchmark %S" b)
    | None ->
      if spec.sp_scale < 1 then Error "scale must be >= 1"
      else (
        match sampling_of_string spec.sp_sample with
        | Error e -> Error e
        | Ok _ -> Ok ()))

(* Serial render labs, shared across requests with the same shape so
   their memo tables stay warm. The benchmark list is part of the key in
   client order — row order must match what a local run would print. *)
let lab_for d spec =
  let key =
    Printf.sprintf "%d|%s|%s" spec.sp_scale
      (String.concat "," spec.sp_benchmarks)
      (Option.value spec.sp_sample ~default:"<exact>")
  in
  match Hashtbl.find_opt d.d_labs key with
  | Some lab -> lab
  | None ->
    let sample =
      match sampling_of_string spec.sp_sample with
      | Ok s -> s
      | Error e -> failwith e
    in
    let names =
      match spec.sp_benchmarks with [] -> None | ns -> Some ns
    in
    let lab = Lab.create ~scale:spec.sp_scale ?names ?sample ~cache:d.d_cache () in
    Hashtbl.replace d.d_labs key lab;
    lab

let handle_run d conn msg =
  match spec_of_json msg with
  | Error e -> safe_send d conn (err_msg e)
  | Ok spec -> (
    match validate_spec spec with
    | Error e -> safe_send d conn (err_msg e)
    | Ok () ->
      if conn.c_req <> None then
        safe_send d conn (err_msg "one run at a time per connection")
      else begin
        d.d_requests <- d.d_requests + 1;
        d.d_log
          (Printf.sprintf "svc: run request: %s (scale %d%s)"
             (String.concat " " spec.sp_artifacts)
             spec.sp_scale
             (match spec.sp_benchmarks with
             | [] -> ""
             | bs -> ", benches " ^ String.concat "," bs));
        let lab = lab_for d spec in
        let req =
          {
            r_conn = conn;
            r_lab = lab;
            r_arts =
              Array.of_list
                (List.map
                   (fun a -> { a_name = a; a_total = 0; a_done = 0; a_sent = false })
                   spec.sp_artifacts);
            r_unqueued = [];
            r_closed = false;
            r_dedup = 0;
            r_cache = 0;
            r_computed = 0;
          }
        in
        conn.c_req <- Some req;
        d.d_reqs <- d.d_reqs @ [ req ];
        Array.iteri
          (fun ix a ->
            if not req.r_closed then begin
              let jobs = Lab.with_baselines (jobs_for a.a_name lab) in
              let seen = Hashtbl.create 16 in
              let uniq =
                List.filter
                  (fun job ->
                    let key = Lab.summary_key_of_job lab job in
                    if Hashtbl.mem seen key then false
                    else begin
                      Hashtbl.replace seen key ();
                      true
                    end)
                  jobs
              in
              a.a_total <- List.length uniq;
              List.iter
                (fun job ->
                  if not req.r_closed then begin
                    let key = Lab.summary_key_of_job lab job in
                    let what = describe_job job in
                    d.d_jobs_requested <- d.d_jobs_requested + 1;
                    if Hashtbl.mem d.d_done key || cache_has d key then begin
                      d.d_cache_hits <- d.d_cache_hits + 1;
                      Hashtbl.replace d.d_done key ();
                      deliver_row d req ix "cache" what
                    end
                    else
                      match Hashtbl.find_opt d.d_inflight key with
                      | Some jr ->
                        d.d_dedup_hits <- d.d_dedup_hits + 1;
                        jr.j_subs <- (req, ix, "dedup") :: jr.j_subs
                      | None ->
                        let wj =
                          {
                            wj_scale = spec.sp_scale;
                            wj_sample = spec.sp_sample;
                            wj_bench = job.Lab.job_bench;
                            wj_kind = job.Lab.job_kind;
                            wj_input = job.Lab.job_input;
                            wj_config = job.Lab.job_config;
                          }
                        in
                        let jr =
                          {
                            j_key = key;
                            j_payload = Marshal.to_string wj [];
                            j_what = what;
                            j_shard = shard_of d job.Lab.job_bench;
                            j_waits = 0;
                            j_attempts = 0;
                            j_subs = [ (req, ix, "computed") ];
                          }
                        in
                        Hashtbl.replace d.d_inflight key jr;
                        req.r_unqueued <- req.r_unqueued @ [ jr ]
                  end)
                uniq
            end)
          req.r_arts;
        advance_request d req;
        pump d
      end)

let stats_json d =
  J.Obj
    [
      ("type", J.String "stats");
      ("requests", J.Int d.d_requests);
      ("jobs_requested", J.Int d.d_jobs_requested);
      ("dedup_hits", J.Int d.d_dedup_hits);
      ("cache_hits", J.Int d.d_cache_hits);
      ("computed", J.Int d.d_computed);
      ("inflight", J.Int (Hashtbl.length d.d_inflight));
      ("workers", J.Int (Procpool.size d.d_pool));
      ("respawns", J.Int (Procpool.respawns d.d_pool));
      ("connections", J.Int (List.length d.d_conns));
    ]

let handle_client d conn =
  match Framing.recv conn.c_fd with
  | Error Framing.Closed -> drop_conn d conn
  | Error e ->
    d.d_log
      (Printf.sprintf "svc: dropping connection: %s" (Framing.error_to_string e));
    drop_conn d conn
  | Ok msg -> (
    match sfield msg "type" with
    | Some "hello" ->
      let v = Option.value (ifield msg "v") ~default:0 in
      if v = protocol_version then
        safe_send d conn
          (J.Obj
             [
               ("type", J.String "hello");
               ("v", J.Int protocol_version);
               ("ok", J.Bool true);
               ("artifacts", jstrings (List.map fst (Lazy.force catalog)));
             ])
      else begin
        safe_send d conn
          (err_msg
             (Printf.sprintf "protocol version mismatch: daemon speaks %d, client %d"
                protocol_version v));
        drop_conn d conn
      end
    | Some "run" -> handle_run d conn msg
    | Some "stats" -> safe_send d conn (stats_json d)
    | Some "shutdown" ->
      safe_send d conn (J.Obj [ ("type", J.String "ok") ]);
      d.d_stop <- true
    | _ -> safe_send d conn (err_msg "unknown message type"))

(* ---------- serve loop ---------- *)

let serve ?workers ?queue_bound ~socket ~cache_dir ?(log = ignore) () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = ref false in
  let on_signal = Sys.Signal_handle (fun _ -> stop := true) in
  let old_int = Sys.signal Sys.sigint on_signal in
  let old_term = Sys.signal Sys.sigterm on_signal in
  Fun.protect ~finally:(fun () ->
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigterm old_term)
  @@ fun () ->
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 16;
  (* Workers must not hold the daemon's sockets: a forked child closes
     the listener and every client connection open at fork time. *)
  let conns_ref = ref [] in
  let child_setup () =
    Sys.set_signal Sys.sigint Sys.Signal_default;
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    List.iter
      (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
      !conns_ref
  in
  let pool =
    Procpool.create ?size:workers
      ~handler:(make_worker_handler ~cache_dir ())
      ~child_setup ()
  in
  let d =
    {
      d_listen = listen_fd;
      d_pool = pool;
      d_queue_bound =
        (match queue_bound with
        | Some q -> max 1 q
        | None -> 2 * Procpool.size pool);
      d_cache = Cache.create ~dir:cache_dir ();
      d_conns = [];
      d_reqs = [];
      d_inflight = Hashtbl.create 64;
      d_done = Hashtbl.create 64;
      d_ready = Queue.create ();
      d_tickets = Hashtbl.create 16;
      d_labs = Hashtbl.create 4;
      d_shards = Hashtbl.create 16;
      d_next_shard = 0;
      d_log = log;
      d_stop = false;
      d_requests = 0;
      d_jobs_requested = 0;
      d_dedup_hits = 0;
      d_cache_hits = 0;
      d_computed = 0;
    }
  in
  log
    (Printf.sprintf "wishd: serving on %s (%d workers, queue %d, cache %s)" socket
       (Procpool.size pool) d.d_queue_bound (Cache.dir d.d_cache));
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
        d.d_conns;
      Procpool.shutdown pool;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      log "wishd: shut down")
  @@ fun () ->
  while not (!stop || d.d_stop) do
    conns_ref := d.d_conns;
    let fds =
      (listen_fd :: List.map (fun c -> c.c_fd) d.d_conns)
      @ Procpool.busy_fds pool
    in
    match Unix.select fds [] [] 0.5 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if not (!stop || d.d_stop) then
            if fd = listen_fd then (
              match Unix.accept listen_fd with
              | exception Unix.Unix_error _ -> ()
              | cfd, _ ->
                d.d_conns <-
                  d.d_conns @ [ { c_fd = cfd; c_alive = true; c_req = None } ])
            else
              match
                List.find_opt (fun c -> c.c_alive && c.c_fd = fd) d.d_conns
              with
              | Some conn -> handle_client d conn
              | None -> (
                match Procpool.handle_readable pool fd with
                | Some ev -> handle_worker_event d ev
                | None -> ()))
        readable
  done

(* ---------- client ---------- *)

type client = { cl_fd : Unix.file_descr }

let close c = try Unix.close c.cl_fd with Unix.Unix_error _ -> ()

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let give_up msg =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error msg
  in
  match
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Framing.send fd
      (J.Obj [ ("type", J.String "hello"); ("v", J.Int protocol_version) ]);
    Framing.recv fd
  with
  | exception Unix.Unix_error (e, _, _) -> give_up (Unix.error_message e)
  | Error e -> give_up (Framing.error_to_string e)
  | Ok reply -> (
    match sfield reply "type" with
    | Some "hello" when J.member "ok" reply = Some (J.Bool true) ->
      Ok { cl_fd = fd }
    | Some "error" ->
      give_up
        (Option.value (sfield reply "message") ~default:"daemon rejected hello")
    | _ -> give_up "unexpected hello reply")

type row = {
  row_artifact : string;
  row_what : string;
  row_via : string;
  row_done : int;
  row_total : int;
}

type run_stats = { rs_dedup : int; rs_cache : int; rs_computed : int }

let spec_json spec =
  J.Obj
    [
      ("type", J.String "run");
      ("v", J.Int protocol_version);
      ("artifacts", jstrings spec.sp_artifacts);
      ("scale", J.Int spec.sp_scale);
      ("benchmarks", jstrings spec.sp_benchmarks);
      ( "sample",
        match spec.sp_sample with None -> J.Null | Some s -> J.String s );
    ]

let run_remote c ~spec ?(on_row = fun _ -> ()) ~on_table () =
  match
    Framing.send c.cl_fd (spec_json spec);
    let rec loop () =
      match Framing.recv c.cl_fd with
      | Error e -> Error (Framing.error_to_string e)
      | Ok msg -> (
        match sfield msg "type" with
        | Some "job" ->
          on_row
            {
              row_artifact = Option.value (sfield msg "artifact") ~default:"";
              row_what = Option.value (sfield msg "what") ~default:"";
              row_via = Option.value (sfield msg "via") ~default:"";
              row_done = Option.value (ifield msg "done") ~default:0;
              row_total = Option.value (ifield msg "total") ~default:0;
            };
          loop ()
        | Some "table" ->
          on_table
            ~artifact:(Option.value (sfield msg "artifact") ~default:"")
            ~text:(Option.value (sfield msg "text") ~default:"")
            ~csv:(Option.value (sfield msg "csv") ~default:"");
          loop ()
        | Some "done" ->
          Ok
            {
              rs_dedup = Option.value (ifield msg "dedup") ~default:0;
              rs_cache = Option.value (ifield msg "cache") ~default:0;
              rs_computed = Option.value (ifield msg "computed") ~default:0;
            }
        | Some "error" ->
          Error (Option.value (sfield msg "message") ~default:"daemon error")
        | _ -> Error "unexpected message from daemon")
    in
    loop ()
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | r -> r

let stats_remote c =
  match
    Framing.send c.cl_fd (J.Obj [ ("type", J.String "stats") ]);
    Framing.recv c.cl_fd
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | Error e -> Error (Framing.error_to_string e)
  | Ok reply ->
    if sfield reply "type" = Some "stats" then Ok reply
    else Error "unexpected stats reply"

let shutdown_remote c =
  match
    Framing.send c.cl_fd (J.Obj [ ("type", J.String "shutdown") ]);
    Framing.recv c.cl_fd
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | Error e -> Error (Framing.error_to_string e)
  | Ok reply ->
    if sfield reply "type" = Some "ok" then Ok ()
    else Error "unexpected shutdown reply"
