(** The lab: compiles each workload's five binaries once, memoizes
    simulation results, and hands figure generators their data.

    Evaluation protocol (mirroring the paper's methodology):
    - binaries are compiled with profile feedback from each workload's
      designated training input (input B by convention);
    - unless a figure says otherwise (Figure 1 sweeps inputs), simulations
      run on input A — an input the compiler did not train on;
    - execution times are reported normalized to the normal-branch binary
      under the same machine configuration.

    Performance machinery on top of the memo tables:
    - an optional {!Wish_util.Pool} of worker domains: {!run_batch} and
      {!prewarm} fan independent compile/simulate jobs across it and
      fold the results back into the tables on the coordinating domain, so
      the tables are only ever mutated single-threaded and the outputs are
      bit-identical to the serial path;
    - an optional persistent {!Cache}: summaries are looked up by
      (bench, binary, input, scale, config) before being recomputed and
      stored after, making repeated runs incremental across processes.
      A missed summary is computed under its cache lease
      ({!Cache.single_flight}), so concurrent runs sharing a cache
      directory simulate each summary once;
    - compile variants: a job may name its kind recompiled with another
      wish-jump threshold ([job_wish_n]); the variant is compiled from
      the bench's training profile as a supervised batch task, and gets
      the same memo, cache, pool and supervision as a standard binary;
    - content sharing: a job that misses both the memo and the cache is
      keyed by its content identity (bench, input, scale, sampling, a
      digest of the program image, and the config with the fields a
      wish-free program cannot observe reset). Each content key is
      simulated once per lab, and every job with that key gets the
      summary, stored under its own unchanged cache key. Byte-identical
      binaries are common: BASE-DEF is the normal binary on six
      benches, and A4's N=0/N=5 variants are wish-jj. Warm runs never
      compute a content key;
    - trace-free simulation: no trace is ever materialized. Exact runs
      stream emulation into the timing core (bounded trace residency);
      sampled runs warm fused into the emulator, an auto spec sized by a
      count-only emulator run ({!Wish_sim.Runner.simulate_sampled}).

    Fault tolerance ({!policy}): every batched stage runs under
    supervision — a job that raises (or whose worker domain dies; the
    {!Wish_util.Pool} requeues and respawns underneath us) fails that job
    only, is retried up to [retries] times with exponential backoff and
    deterministic jitter, and is reported as a structured {!failure} if it
    never succeeds. Per-job wall-clock timeouts are cooperative: a running
    simulation cannot be preempted, but an overrun is detected at
    completion, its result discarded, and the job retried/reported like
    any other failure, so a batch never silently absorbs a runaway job.
    Because every recomputation is deterministic, any fault schedule that
    eventually succeeds yields byte-identical tables. *)

open Wish_compiler
module Pool = Wish_util.Pool
module Faultpoint = Wish_util.Faultpoint
module Rng = Wish_util.Rng

let fp_compile =
  Faultpoint.register "lab.compile" ~doc:"a compile job raises mid-batch (fails that bench's jobs)"

let fp_trace =
  Faultpoint.register "lab.trace" ~doc:"a simulation job raises before its emulator starts"

let fp_simulate =
  Faultpoint.register "lab.simulate" ~doc:"a simulation job raises mid-batch"

let fp_slow =
  Faultpoint.register "lab.slow"
    ~doc:"a simulation job sleeps (the armed delay, default 50ms) before starting, tripping --timeout budgets"

(* --------------------------------------------------------------- *)
(* Supervision policy and outcomes                                  *)
(* --------------------------------------------------------------- *)

type policy = {
  timeout : float option;
  retries : int;
  backoff : float;
  keep_going : bool;
  seed : int;
}

let default_policy =
  { timeout = None; retries = 2; backoff = 0.05; keep_going = false; seed = 1 }

type failure = {
  failed_stage : string;
  failed_what : string;
  failed_attempts : int;
  failed_reason : string;
}

exception Job_failed of failure
exception Interrupted

let pp_failure ppf f =
  Format.fprintf ppf "%s %s failed after %d attempt%s: %s" f.failed_stage f.failed_what
    f.failed_attempts
    (if f.failed_attempts = 1 then "" else "s")
    f.failed_reason

let () =
  Printexc.register_printer (function
    | Job_failed f -> Some (Format.asprintf "Lab.Job_failed (%a)" pp_failure f)
    | Interrupted -> Some "Lab.Interrupted"
    | _ -> None)

type batch_stats = {
  mutable executed : int; (* stage tasks actually run (attempts included) *)
  mutable retried : int; (* extra attempts beyond each task's first *)
  mutable failed : int; (* tasks that exhausted their retry budget *)
  mutable cache_hits : int;
  mutable resumed : int; (* journaled jobs served from the cache *)
  mutable lease_waited : int; (* found after waiting on another process's lease *)
  mutable shared : int; (* settled from an identical program's run *)
}

(** How the lab simulates: [Sample_auto] scales a sampling spec to each
    run's dynamic length; [Sample_spec] uses one fixed spec everywhere. *)
type sampling = Sample_auto | Sample_spec of Wish_sim.Sampler.spec

let sampling_key = function
  | Sample_auto -> "auto"
  | Sample_spec s -> Wish_sim.Sampler.to_string s

(* What a binary contributes to its jobs' content identity: a digest of
   its program image and whether it holds any wish branch. *)
type image = { image_digest : string; wish_free : bool }

type t = {
  scale : int;
  mutable benches : Wish_workloads.Bench.t list;
  binaries : (string, Compiler.binaries) Hashtbl.t;
  variants : (string * string, Wish_isa.Program.t) Hashtbl.t; (* compile variants by (bench, binary) *)
  images : (string * string, image) Hashtbl.t; (* by (bench, binary) *)
  results : (string * string * string * Wish_sim.Config.t, Wish_sim.Runner.summary) Hashtbl.t;
  runs : (string, string * Wish_sim.Runner.summary) Hashtbl.t;
      (* content key -> (the job that ran it, its summary) *)
  mutable log : string -> unit;
  pool : Pool.t option;
  cache : Cache.t option;
  journal : (string, unit) Hashtbl.t; (* completed-job keys loaded for --resume *)
  stop : bool Atomic.t;
  stats : batch_stats;
  sample : sampling option;
  sample_parallel : bool;
}

let eval_input = "A"

let create ?(scale = 1) ?names ?(jobs = 1) ?cache ?(resume = false) ?sample
    ?(sample_parallel = false) () =
  let names = Option.value names ~default:Wish_workloads.Workloads.names in
  let journal =
    match (resume, cache) with
    | true, Some c -> Cache.journal_load c
    | _ -> Hashtbl.create 1
  in
  {
    scale;
    benches = List.map (Wish_workloads.Workloads.find ~scale) names;
    binaries = Hashtbl.create 16;
    variants = Hashtbl.create 16;
    images = Hashtbl.create 64;
    results = Hashtbl.create 256;
    runs = Hashtbl.create 256;
    log = ignore;
    pool = (if jobs > 1 then Some (Pool.create ~size:jobs ()) else None);
    cache;
    journal;
    stop = Atomic.make false;
    stats =
      {
        executed = 0;
        retried = 0;
        failed = 0;
        cache_hits = 0;
        resumed = 0;
        lease_waited = 0;
        shared = 0;
      };
    sample;
    sample_parallel;
  }

let sampling t = t.sample

let jobs t = match t.pool with Some p -> Pool.size p | None -> 1
let shutdown t = match t.pool with Some p -> Pool.shutdown p | None -> ()
let journaled_jobs t = Hashtbl.length t.journal

let batch_stats t =
  (* A copy: callers cannot perturb the accumulators. *)
  let s = t.stats in
  {
    executed = s.executed;
    retried = s.retried;
    failed = s.failed;
    cache_hits = s.cache_hits;
    resumed = s.resumed;
    lease_waited = s.lease_waited;
    shared = s.shared;
  }

let request_stop t = Atomic.set t.stop true
let stop_requested t = Atomic.get t.stop
let check_stop t = if Atomic.get t.stop then raise Interrupted

(* Simulate tasks log from worker domains; one lock keeps lines whole. *)
let set_logger t f =
  let m = Mutex.create () in
  t.log <- (fun s -> Mutex.protect m (fun () -> f s))

let benches t = t.benches
let bench_names t = List.map (fun (b : Wish_workloads.Bench.t) -> b.name) t.benches

let bench t name =
  match List.find_opt (fun (b : Wish_workloads.Bench.t) -> b.name = name) t.benches with
  | Some b -> b
  | None -> invalid_arg ("Lab: unknown bench " ^ name)

(* --------------------------------------------------------------- *)
(* Jobs and their keys                                              *)
(* --------------------------------------------------------------- *)

type job = {
  job_bench : string;
  job_kind : Policy.kind;
  job_input : string;
  job_config : Wish_sim.Config.t;
  job_wish_n : int option;
}

let job ~bench ~kind ?(input = eval_input) ?(config = Wish_sim.Config.default) ?wish_n () =
  { job_bench = bench; job_kind = kind; job_input = input; job_config = config; job_wish_n = wish_n }

(** The baseline run {!normalized} divides by: the standard normal binary
    on the same input and machine, with the oracle idealization knobs
    stripped. *)
let baseline_of j =
  {
    j with
    job_kind = Policy.Normal;
    job_config = { j.job_config with Wish_sim.Config.knobs = Wish_sim.Config.no_knobs };
    job_wish_n = None;
  }

let with_baselines js = List.concat_map (fun j -> [ j; baseline_of j ]) js

(* The binary a job names: the kind's name, plus [.n<N>] for a compile
   variant. No standard kind name contains a dot, so a variant never
   aliases a standard binary (not even [.n5], the default threshold). *)
let binary_name j =
  let k = Policy.kind_name j.job_kind in
  match j.job_wish_n with None -> k | Some n -> Printf.sprintf "%s.n%d" k n

let memo_key j = (j.job_bench, binary_name j, j.job_input, j.job_config)

let describe_job j = Printf.sprintf "%s/%s input %s" j.job_bench (binary_name j) j.job_input

(* The persistent-cache identity of a job's summary — also the key of
   the lease concurrent processes compute it under. Standard binaries
   keep their historical keys; sampled
   results live under distinct keys (suffix [|sampleW:D] or
   [|sampleauto]), so a cache survives turning sampling on and off. *)
let summary_key_of_job t j =
  let base =
    Printf.sprintf "%s|%s|%s|scale%d|cfg%s" j.job_bench (binary_name j) j.job_input t.scale
      (Cache.digest_of j.job_config)
  in
  match t.sample with None -> base | Some s -> base ^ "|sample" ^ sampling_key s

(* The exact/sampled switch, shared by the serial and batched paths.
   Neither materializes a trace: exact runs stream, sampled runs warm
   fused (no spec = auto, sized by a count-only run). [pool]
   parallelizes the measurement windows inside one simulation — only the
   serial path passes it (batched jobs already occupy the worker
   domains). *)
let simulate_with t ?pool ~config p =
  match t.sample with
  | None -> Wish_sim.Runner.simulate ~config ~streaming:true p
  | Some s ->
    let spec = match s with Sample_spec sp -> Some sp | Sample_auto -> None in
    fst (Wish_sim.Runner.simulate_sampled ?pool ~config ?spec p)

(* Progress line naming the run's machine by the summary key's config
   digest, so runs differing only in configuration stay distinguishable. *)
let log_simulating t j =
  t.log
    (Printf.sprintf "simulating %s cfg %s" (describe_job j)
       (String.sub (Cache.digest_of j.job_config) 0 8))

let cached_summary t key =
  match t.cache with None -> None | Some c -> Cache.find c ~kind:"summary" ~key

let store_summary t j s =
  Option.iter (fun c -> Cache.store c ~kind:"summary" ~key:(summary_key_of_job t j) s) t.cache

(* [leased t ~sharers j simulate] — [j]'s summary after a cache miss:
   computed and stored under the job's cache lease, or read back once
   another process holding the lease has stored it. A computed summary
   is also stored under each of [sharers]' keys, before [j]'s own (the
   lease stores that one on release): a process that finds [j]'s entry
   then finds its sharers' too, and simulates none of them again. Safe
   on a worker domain: it only logs and stores, and touches no table. *)
let leased t ?(sharers = []) j simulate =
  let simulate () =
    log_simulating t j;
    let s = simulate () in
    List.iter (fun m -> store_summary t m s) sharers;
    s
  in
  match t.cache with
  | None -> (simulate (), Cache.Computed)
  | Some c ->
    let on_wait () =
      t.log (Printf.sprintf "waiting: %s (leased by another process)" (describe_job j))
    in
    let s, origin =
      Cache.single_flight c ~kind:"summary" ~key:(summary_key_of_job t j) ~on_wait simulate
    in
    if origin = Cache.Found then t.log ("cache hit: summary " ^ describe_job j);
    (s, origin)

(* Fold a resolved summary into the tables, on the calling domain.
   Summaries are the unit of batch completion: journaling the key is
   what lets an interrupted batch resume. *)
let record t j s =
  Option.iter (fun c -> Cache.journal_append c (summary_key_of_job t j)) t.cache;
  Hashtbl.replace t.results (memo_key j) s;
  s

(* Settle a [leased] outcome. *)
let settle t j (s, origin) =
  (match origin with
  | Cache.Computed -> ()
  | Cache.Found -> t.stats.cache_hits <- t.stats.cache_hits + 1
  | Cache.Found_after_wait -> t.stats.lease_waited <- t.stats.lease_waited + 1);
  record t j s

(* Settle [m] with the summary of [rep], a run of the same program under
   a config [m] cannot tell from its own. [stored]: [leased] already
   wrote [m]'s entry. *)
let settle_shared t ~rep ?(stored = false) m s =
  t.log (Printf.sprintf "shared: %s = %s (identical program)" (describe_job m) rep);
  t.stats.shared <- t.stats.shared + 1;
  if not stored then store_summary t m s;
  record t m s

(* --------------------------------------------------------------- *)
(* Serial (memoized, cache-backed) accessors                        *)
(* --------------------------------------------------------------- *)

let compile t name =
  let b = bench t name in
  t.log (Printf.sprintf "compiling %s (5 binaries, profile input %s)" name b.profile_input);
  Compiler.compile_all ~mem_words:b.mem_words ~name
    ~profile_data:(Wish_workloads.Bench.profile_data b) b.ast

let binaries t name =
  match Hashtbl.find_opt t.binaries name with
  | Some b -> b
  | None ->
    let bins = compile t name in
    Hashtbl.add t.binaries name bins;
    bins

(* A compile variant's binary: [j]'s kind recompiled with wish-jump
   threshold [n], from the training profile [compile_all] already took.
   Pure, so the batched path runs it as a supervised task. *)
let compile_variant (b : Wish_workloads.Bench.t) (bins : Compiler.binaries) j n =
  let policy = Policy.create ~profile:bins.profile ~wish_threshold_n:n j.job_kind in
  fst (Codegen.compile ~mem_words:b.mem_words ~policy ~name:(b.name ^ ".n") b.ast)

let variant_key j = (j.job_bench, binary_name j)

(* [job_binary t j] — the binary [j] names, before its input is bound.
   A compile variant is compiled on first use and kept. *)
let job_binary t j =
  let bins = binaries t j.job_bench in
  match j.job_wish_n with
  | None -> Compiler.binary bins j.job_kind
  | Some n -> (
    match Hashtbl.find_opt t.variants (variant_key j) with
    | Some p -> p
    | None ->
      let p = compile_variant (bench t j.job_bench) bins j n in
      Hashtbl.add t.variants (variant_key j) p;
      p)

let job_program t j = Wish_workloads.Bench.program_for (bench t j.job_bench) (job_binary t j) j.job_input
let program t ~bench ~kind ~input = job_program t (job ~bench ~kind ~input ())

(* [content_key_of_job t j] — what [j]'s summary depends on: bench,
   input, scale and sampling mode (which fix the input data), a digest
   of the program image, and the config with the fields the program
   cannot observe reset ({!Wish_sim.Config.wish_free_canonical} when it
   has no wish branch). Jobs with equal content keys have equal
   summaries, so the lab simulates each content key once. The image is
   digested once per (bench, binary); the key is computed only for jobs
   that miss both the memo and the cache. *)
let content_key_of_job t j =
  let img =
    match Hashtbl.find_opt t.images (variant_key j) with
    | Some i -> i
    | None ->
      let p = job_binary t j in
      let i =
        {
          image_digest = Cache.digest_of (p.Wish_isa.Program.code, p.entry, p.mem_words);
          wish_free = Wish_isa.Code.static_wish_branches p.code = 0;
        }
      in
      Hashtbl.add t.images (variant_key j) i;
      i
  in
  let config =
    if img.wish_free then Wish_sim.Config.wish_free_canonical j.job_config else j.job_config
  in
  let base =
    Printf.sprintf "%s|%s|scale%d|img%s|cfg%s" j.job_bench j.job_input t.scale img.image_digest
      (Cache.digest_of config)
  in
  match t.sample with None -> base | Some s -> base ^ "|sample" ^ sampling_key s

(** [run t ~bench ~kind ?input ?config ?wish_n ()] — memoized simulation. *)
let run t ~bench ~kind ?input ?config ?wish_n () =
  let j = job ~bench ~kind ?input ?config ?wish_n () in
  match Hashtbl.find_opt t.results (memo_key j) with
  | Some s -> s
  | None -> (
    match cached_summary t (summary_key_of_job t j) with
    | Some s ->
      t.stats.cache_hits <- t.stats.cache_hits + 1;
      t.log ("cache hit: summary " ^ describe_job j);
      Hashtbl.add t.results (memo_key j) s;
      s
    | None -> (
      let ck = content_key_of_job t j in
      match Hashtbl.find_opt t.runs ck with
      | Some (rep, s) -> settle_shared t ~rep j s
      | None ->
        let program = job_program t j in
        let pool = if t.sample_parallel then t.pool else None in
        let s = settle t j (leased t j (fun () -> simulate_with t ?pool ~config:j.job_config program)) in
        Hashtbl.replace t.runs ck (describe_job j, s);
        s))

(* --------------------------------------------------------------- *)
(* Batched (parallel, supervised) execution                         *)
(* --------------------------------------------------------------- *)

let pmap t f xs = match t.pool with Some p -> Pool.map p f xs | None -> List.map f xs

(* Order-preserving dedup. *)
let uniq key xs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

(* Order-preserving grouping: [(k, members)] in order of each key's
   first appearance, members in list order. *)
let group_by key xs =
  let groups = Hashtbl.create 64 in
  let keys =
    List.filter_map
      (fun x ->
        let k = key x in
        match Hashtbl.find_opt groups k with
        | Some ms ->
          Hashtbl.replace groups k (x :: ms);
          None
        | None ->
          Hashtbl.add groups k [ x ];
          Some k)
      xs
  in
  List.map (fun k -> (k, List.rev (Hashtbl.find groups k))) keys

(* Fan [f] over [xs] on the pool under [policy]: each item is attempted
   up to [1 + retries] times, failed rounds separated by exponential
   backoff with deterministic jitter; a completion slower than [timeout]
   counts as a failure (its result is discarded — recomputation is
   deterministic, so a retried success is bit-identical). Workers never
   see an exception: every attempt is folded to a [result] inside the
   task, so one job's crash (or its worker's injected death, handled a
   layer down by the pool) cannot abandon the batch. Returns per-item
   [Ok y | Error failure] in order; under fail-fast, raises [Job_failed]
   on the first exhausted item instead. *)
let supervised_map t ~policy ~stage ~describe f xs =
  if xs = [] then []
  else begin
    check_stop t;
    let jitter = Rng.create (policy.seed lxor 0x5eed) in
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let attempts = Array.make n 0 in
    let pending = ref (List.init n Fun.id) in
    let round = ref 0 in
    while !pending <> [] && !round <= policy.retries do
      check_stop t;
      if !round > 0 then begin
        let base = policy.backoff *. (2.0 ** float_of_int (!round - 1)) in
        let factor = 0.5 +. (float_of_int (Rng.int jitter 1024) /. 1024.0) in
        Unix.sleepf (base *. factor)
      end;
      let outs =
        pmap t
          (fun i ->
            let t0 = Unix.gettimeofday () in
            match f items.(i) with
            | y -> (
              let dt = Unix.gettimeofday () -. t0 in
              match policy.timeout with
              | Some budget when dt > budget ->
                Error (Printf.sprintf "timeout (%.3fs elapsed, %.3fs budget)" dt budget)
              | _ -> Ok y)
            | exception Faultpoint.Injected { site; hit } ->
              Error (Printf.sprintf "injected fault at %s (hit %d)" site hit)
            | exception e -> Error (Printexc.to_string e))
          !pending
      in
      let failed_now = ref [] in
      List.iter2
        (fun i out ->
          attempts.(i) <- attempts.(i) + 1;
          t.stats.executed <- t.stats.executed + 1;
          results.(i) <- Some out;
          match out with
          | Ok _ -> ()
          | Error reason ->
            failed_now := i :: !failed_now;
            t.log
              (Printf.sprintf "%s %s: attempt %d/%d failed (%s)" stage (describe items.(i))
                 attempts.(i) (1 + policy.retries) reason))
        !pending outs;
      let failed_now = List.rev !failed_now in
      if failed_now <> [] && !round < policy.retries then
        t.stats.retried <- t.stats.retried + List.length failed_now;
      pending := failed_now;
      incr round
    done;
    List.init n (fun i ->
        match results.(i) with
        | Some (Ok y) -> Ok y
        | Some (Error reason) ->
          let fl =
            {
              failed_stage = stage;
              failed_what = describe items.(i);
              failed_attempts = attempts.(i);
              failed_reason = reason;
            }
          in
          t.stats.failed <- t.stats.failed + 1;
          if not policy.keep_going then raise (Job_failed fl);
          Error fl
        | None -> assert false)
  end

(** [run_batch_results t jobs] — the supervised parallel twin of {!run}:
    resolves every job (memo table, then disk cache, then
    compile/simulate fanned over the worker pool, each stage under
    the retry/timeout policy) and returns per-job outcomes in [jobs]
    order. Jobs that miss both are grouped by content key, and each
    group is simulated once. A simulate task stores its summaries under
    its cache lease before releasing it ({!Cache.store} is
    domain-safe); the memo tables, counters and journal are only
    touched on the calling domain. *)
let run_batch_results ?(policy = default_policy) t jobs =
  check_stop t;
  (* Stage 1: compile missing binaries (one job per bench). A bench whose
     compile exhausts its retries poisons only that bench's jobs. *)
  let failed_benches : (string, failure) Hashtbl.t = Hashtbl.create 4 in
  let missing_benches =
    uniq Fun.id
      (List.filter_map
         (fun j -> if Hashtbl.mem t.binaries j.job_bench then None else Some j.job_bench)
         jobs)
  in
  if missing_benches <> [] then
    List.iter2
      (fun name -> function
        | Ok bins -> Hashtbl.replace t.binaries name bins
        | Error fl -> Hashtbl.replace failed_benches name fl)
      missing_benches
      (supervised_map t ~policy ~stage:"compile" ~describe:Fun.id
         (fun name ->
           Faultpoint.cut fp_compile;
           compile t name)
         missing_benches);
  (* Stage 2: resolve summaries from memo and disk; what is left needs
     simulating. *)
  let todo =
    uniq memo_key (List.filter (fun j -> not (Hashtbl.mem t.results (memo_key j))) jobs)
  in
  let todo =
    List.filter
      (fun j ->
        if Hashtbl.mem failed_benches j.job_bench then false
        else begin
          let ckey = summary_key_of_job t j in
          match cached_summary t ckey with
          | Some s ->
            t.stats.cache_hits <- t.stats.cache_hits + 1;
            if Hashtbl.mem t.journal ckey then begin
              t.stats.resumed <- t.stats.resumed + 1;
              t.log (Printf.sprintf "resume: skipping %s (journaled)" (describe_job j))
            end
            else t.log ("cache hit: summary " ^ describe_job j);
            Hashtbl.add t.results (memo_key j) s;
            false
          | None -> true
        end)
      todo
  in
  let failed_runs : (string * string * string * Wish_sim.Config.t, failure) Hashtbl.t =
    Hashtbl.create 4
  in
  let fail fl j = Hashtbl.replace failed_runs (memo_key j) fl in
  (* Stage 3: compile the variants missed jobs name, one task per
     binary, so their images can be compared before anything runs. A
     failed variant poisons its jobs. *)
  let variant_tasks =
    List.map
      (fun j -> (j, bench t j.job_bench, binaries t j.job_bench))
      (uniq variant_key
         (List.filter
            (fun j -> j.job_wish_n <> None && not (Hashtbl.mem t.variants (variant_key j)))
            todo))
  in
  let failed_variants = Hashtbl.create 4 in
  List.iter2
    (fun (j, _, _) -> function
      | Ok p -> Hashtbl.replace t.variants (variant_key j) p
      | Error fl -> Hashtbl.replace failed_variants (variant_key j) fl)
    variant_tasks
    (supervised_map t ~policy ~stage:"compile"
       ~describe:(fun (j, _, _) -> j.job_bench ^ "/" ^ binary_name j)
       (fun (j, b, bins) -> compile_variant b bins j (Option.get j.job_wish_n))
       variant_tasks);
  let todo =
    List.filter
      (fun j ->
        match Hashtbl.find_opt failed_variants (variant_key j) with
        | Some fl ->
          fail fl j;
          false
        | None -> true)
      todo
  in
  (* Stage 4: group by content key. A group whose program already ran
     (in an earlier batch, say) settles at once; every other group is
     simulated once, trace-free, by its first job under that job's
     cache lease, and the rest share the summary. [lab.trace] is cut
     first, before the emulator starts, so fault schedules that arm it
     stay valid; [lab.slow] sleeps inside the lease, like a slow
     simulation. *)
  let groups =
    List.filter_map
      (fun (ck, members) ->
        match Hashtbl.find_opt t.runs ck with
        | Some (rep, s) ->
          List.iter (fun m -> ignore (settle_shared t ~rep m s)) members;
          None
        | None -> Some (ck, List.hd members, List.tl members, job_program t (List.hd members)))
      (group_by (content_key_of_job t) todo)
  in
  List.iter2
    (fun (ck, rep, sharers, _) -> function
      | Ok ((s, origin) as out) ->
        ignore (settle t rep out);
        let rep = describe_job rep in
        Hashtbl.replace t.runs ck (rep, s);
        let stored = origin = Cache.Computed in
        List.iter (fun m -> ignore (settle_shared t ~rep ~stored m s)) sharers
      | Error fl -> List.iter (fail fl) (rep :: sharers))
    groups
    (supervised_map t ~policy ~stage:"simulate"
       ~describe:(fun (_, rep, _, _) -> describe_job rep)
       (fun (_, rep, sharers, program) ->
         Faultpoint.cut fp_trace;
         Faultpoint.cut fp_simulate;
         leased t ~sharers rep (fun () ->
             if Faultpoint.fires fp_slow then Unix.sleepf (Faultpoint.delay_of fp_slow);
             simulate_with t ~config:rep.job_config program))
       groups);
  (* Assemble per-job outcomes, [jobs] order. *)
  List.map
    (fun j ->
      match Hashtbl.find_opt t.results (memo_key j) with
      | Some s -> Ok s
      | None -> (
        match Hashtbl.find_opt failed_runs (memo_key j) with
        | Some fl -> Error fl
        | None -> (
          match Hashtbl.find_opt failed_benches j.job_bench with
          | Some fl -> Error fl
          | None -> assert false)))
    jobs

(** [run_batch t jobs] — {!run_batch_results}, failures raised: the first
    failing job (in [jobs] order) aborts with [Job_failed]. *)
let run_batch ?policy t jobs =
  List.map
    (function Ok s -> s | Error fl -> raise (Job_failed fl))
    (run_batch_results ?policy t jobs)

let prewarm ?policy t jobs =
  let outcomes = run_batch_results ?policy t (with_baselines jobs) in
  match (policy : policy option) with
  | Some { keep_going = true; _ } -> ()
  | _ -> List.iter (function Error fl -> raise (Job_failed fl) | Ok _ -> ()) outcomes

(* --------------------------------------------------------------- *)
(* Derived metrics                                                  *)
(* --------------------------------------------------------------- *)

(** Execution time normalized to the normal-branch binary on the same input
    and the same machine — with the oracle idealization knobs stripped from
    the baseline (the paper normalizes PERFECT-CBP and perf-conf bars to
    the real normal-binary run). *)
let normalized t ~bench:name ~kind ?input ?(config = Wish_sim.Config.default) () =
  let s = run t ~bench:name ~kind ?input ~config () in
  let baseline = { config with Wish_sim.Config.knobs = Wish_sim.Config.no_knobs } in
  let n = run t ~bench:name ~kind:Policy.Normal ?input ~config:baseline () in
  float_of_int s.cycles /. float_of_int n.cycles

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** Paper convention (footnote 2): report the average both with and without
    mcf, whose pathological predication behaviour skews the mean. *)
let avg_rows names (values : string -> float) =
  let all = List.map values names in
  let nomcf = List.filter_map (fun n -> if n = "mcf" then None else Some (values n)) names in
  [ ("AVG", mean all); ("AVGnomcf", mean nomcf) ]
