(** The lab: compiles each workload's five binaries once, memoizes
    simulation results, and hands figure generators their data.

    Evaluation protocol (mirroring the paper's methodology):
    - binaries are compiled with profile feedback from each workload's
      designated training input (input B by convention);
    - unless a figure says otherwise (Figure 1 sweeps inputs), simulations
      run on input A — an input the compiler did not train on;
    - execution times are reported normalized to the normal-branch binary
      under the same machine configuration (oracle knobs stripped from
      the baseline).

    Besides the five standard binaries, a job may name a compile
    variant, its kind recompiled with another wish-jump threshold
    (Ablation A4; see {!type-job}).

    Performance machinery: an optional {!Wish_util.Pool} of worker
    domains ({!run_batch}/{!prewarm} fan independent jobs across it, with
    results folded back deterministically on the calling domain) and an
    optional persistent {!Cache} of summaries consulted before any
    recomputation. A summary the cache misses is computed under its
    cache lease ({!Cache.single_flight}), so concurrent processes
    sharing a cache directory compute each summary once; the others
    wait and read it back. Jobs that miss both memo and cache are
    simulated once per {e content identity} ({!content_key_of_job}):
    byte-identical binaries (BASE-DEF = normal on six benches, A4's
    N=0/N=5 variants = wish-jj) under configs the program cannot tell
    apart share one run, whose summary every member gets, stored under
    its own unchanged key. There is no trace memo and no trace is ever
    materialized: exact runs stream emulation into the timing core
    ([Runner.simulate ~streaming:true]) and sampled runs warm trace-free
    inside the emulator ({!Wish_sim.Runner.simulate_sampled} without a
    trace), so trace memory does not grow with run length or with the
    number of jobs.

    Fault tolerance: batched stages run under a supervision {!policy} —
    per-job crash isolation, bounded retry with exponential backoff and
    deterministic jitter, cooperative wall-clock timeouts, and structured
    {!failure} reports ({!run_batch_results}) instead of silent
    corruption. The completion journal kept by the {!Cache} lets an
    interrupted batch resume ([~resume:true]) and skip finished work.
    Figure output is bit-identical whatever [jobs] is, whether the cache
    is cold, warm, or absent, and under any injected-fault schedule that
    eventually succeeds. *)

type t

(** The default evaluation input label ("A"). *)
val eval_input : string

(** How the lab simulates: [Sample_auto] scales a sampling spec to each
    run's dynamic length ({!Wish_sim.Sampler.auto}, sized by
    {!Wish_emu.Trace.count}); [Sample_spec] uses one fixed spec
    everywhere. *)
type sampling = Sample_auto | Sample_spec of Wish_sim.Sampler.spec

(** [create ?scale ?names ?jobs ?cache ?resume ?sample ?sample_parallel ()]
    — [names] restricts the benchmark set; [jobs > 1] spawns that many
    worker domains for {!run_batch}/{!prewarm} (default 1 = serial);
    [cache] persists summaries across processes; [resume]
    (default false, needs [cache]) loads the completion journal so jobs
    finished by an earlier interrupted run are reported as resumed.
    With [sample], every simulation runs sampled
    ({!Wish_sim.Runner.simulate_sampled}) and summaries are cached under
    keys carrying a [|sample...] suffix — exact results keep their
    historical keys. [sample_parallel] additionally fans each sampled
    run's measurement windows over the worker pool (serial {!run} path
    only; batched jobs already occupy the domains). *)
val create :
  ?scale:int ->
  ?names:string list ->
  ?jobs:int ->
  ?cache:Cache.t ->
  ?resume:bool ->
  ?sample:sampling ->
  ?sample_parallel:bool ->
  unit ->
  t

(** The sampling mode the lab was created with (None = exact). *)
val sampling : t -> sampling option

(** Worker-domain count the lab was created with (1 = serial). *)
val jobs : t -> int

(** Join the worker domains, if any. The lab stays usable serially.
    Always call on every exit path — wrap lab usage in
    [Fun.protect ~finally:(fun () -> Lab.shutdown lab)]. *)
val shutdown : t -> unit

(** [set_logger t f] — progress callbacks for compilations/simulations,
    called from worker domains under a lock. A simulation is announced
    as [simulating <bench>/<binary> input <I> cfg <8 hex digits>] (the
    binary as in {!describe_job}), the digits being the head of the
    machine-configuration digest in its summary's cache key; a job
    whose lease another process holds is announced as
    [waiting: <bench>/<binary> input <I> (leased by another process)]
    and is not simulated if the holder stores its summary; a job settled
    from an identical program's run is announced, in place of a
    [simulating] line, as [shared: <job> = <representative> (identical
    program)], both named as in {!describe_job}. *)
val set_logger : t -> (string -> unit) -> unit

val benches : t -> Wish_workloads.Bench.t list
val bench_names : t -> string list
val bench : t -> string -> Wish_workloads.Bench.t

(** [binaries t name] — compiled (and cached) five binaries. *)
val binaries : t -> string -> Wish_compiler.Compiler.binaries

val program :
  t -> bench:string -> kind:Wish_compiler.Policy.kind -> input:string -> Wish_isa.Program.t

(** [run t ~bench ~kind ?input ?config ?wish_n ()] — memoized simulation
    of the job {!job} builds from the same arguments; [wish_n] selects a
    compile variant (see {!type-job}). *)
val run :
  t ->
  bench:string ->
  kind:Wish_compiler.Policy.kind ->
  ?input:string ->
  ?config:Wish_sim.Config.t ->
  ?wish_n:int ->
  unit ->
  Wish_sim.Runner.summary

(** {1 Supervision} *)

(** How batched stages treat misbehaving jobs. [timeout] is a per-job
    wall-clock budget in seconds (cooperative: an overrun is detected at
    job completion, the result discarded, and the job retried);
    [retries] is the number of {e additional} attempts after the first;
    failed rounds are separated by [backoff *. 2.ⁿ] seconds scaled by a
    deterministic jitter in [0.5, 1.5) drawn from [seed]. With
    [keep_going] every job runs to a verdict and failures are returned
    as data; without it the first exhausted job raises {!Job_failed}. *)
type policy = {
  timeout : float option;
  retries : int;
  backoff : float;
  keep_going : bool;
  seed : int;
}

(** No timeout, 2 retries, 50 ms backoff base, fail-fast, seed 1. *)
val default_policy : policy

(** What a job that exhausted its retry budget looked like. *)
type failure = {
  failed_stage : string;  (** "compile" | "simulate" *)
  failed_what : string;  (** e.g. "gzip/wish-jump-join input A" *)
  failed_attempts : int;
  failed_reason : string;  (** exception text, injected-fault site, or timeout *)
}

exception Job_failed of failure
exception Interrupted

val pp_failure : Format.formatter -> failure -> unit

(** Cumulative supervision counters since {!create} (a snapshot copy). *)
type batch_stats = {
  mutable executed : int;  (** stage tasks actually run, attempts included *)
  mutable retried : int;  (** extra attempts beyond each task's first *)
  mutable failed : int;  (** tasks that exhausted their retry budget *)
  mutable cache_hits : int;
  mutable resumed : int;  (** journaled jobs served from the cache *)
  mutable lease_waited : int;
      (** summaries found after waiting on another process's lease *)
  mutable shared : int;
      (** summaries settled from a run of an identical program (same
          {!content_key_of_job}) instead of being simulated *)
}

val batch_stats : t -> batch_stats

(** Number of completed-job keys loaded from the journal (0 unless
    created with [~resume:true] and a cache). *)
val journaled_jobs : t -> int

(** Ask the current/next batch to stop: signal-handler safe (one atomic
    store). The batch drains the in-flight pool round, then raises
    {!Interrupted} from the coordinating domain; everything already
    finished is in the memo tables, the cache, and the journal. *)
val request_stop : t -> unit

val stop_requested : t -> bool

(** {1 Batched execution} *)

(** One unit of simulation work for {!run_batch}. [job_wish_n] picks
    the binary: [None] is the bench's standard [job_kind] binary from
    {!binaries}; [Some n] is [job_kind] recompiled with wish-jump
    threshold [n] ({!Wish_compiler.Policy.create} [~wish_threshold_n]),
    from the same training profile. A batch compiles the variants its
    missed jobs name as supervised tasks before grouping them by
    {!content_key_of_job}; a variant is then memoized, cached,
    journaled, pooled and supervised like any other job. *)
type job = {
  job_bench : string;
  job_kind : Wish_compiler.Policy.kind;
  job_input : string;
  job_config : Wish_sim.Config.t;
  job_wish_n : int option;
}

(** [job ~bench ~kind ?input ?config ?wish_n ()] — [input] defaults to
    {!eval_input}, [config] to {!Wish_sim.Config.default}, [wish_n] to
    the standard binary. *)
val job :
  bench:string ->
  kind:Wish_compiler.Policy.kind ->
  ?input:string ->
  ?config:Wish_sim.Config.t ->
  ?wish_n:int ->
  unit ->
  job

(** The run {!normalized} divides [j] by: the standard normal binary,
    same input, same machine, oracle knobs stripped. *)
val baseline_of : job -> job

(** [with_baselines js] — each job followed by its {!baseline_of}. *)
val with_baselines : job list -> job list

(** [summary_key_of_job t j] — the persistent-cache key {!run} stores
    [j]'s summary under (bench, binary, input, scale, config digest, and
    the sampling suffix when the lab samples). The binary field is the
    kind's name, e.g. [gzip|wish-jump-join|A|scale1|cfg…], so standard
    jobs keep their historical keys; a compile variant appends [.n<N>]
    to it ([gzip|wish-jump-join.n5|A|…]), which no standard kind name
    can produce. It is also the key of the lease a cache miss computes
    under, so concurrent processes deduplicate in-flight jobs on it. *)
val summary_key_of_job : t -> job -> string

(** [content_key_of_job t j] — the content identity of [j]'s run, used
    only to avoid simulating one program twice: bench, input, scale,
    sampling mode, a digest of the program image (code, entry,
    [mem_words]; the input data is fixed by bench, input and scale), and
    the config digest, with {!Wish_sim.Config.wish_free_canonical}
    applied first when the program has no wish branch. Jobs with equal
    content keys have equal summaries: BASE-DEF is often the normal
    binary byte for byte, and A4's N=0/N=5 variants compile to wish-jj.
    Compiles [j]'s binaries (or its variant) if they are missing; the
    image digest is memoized per (bench, binary). *)
val content_key_of_job : t -> job -> string

(** [describe_job j] — [<bench>/<binary> input <I>], the binary named as
    in {!summary_key_of_job} (e.g. [gzip/wish-jump-join.n5 input A]). *)
val describe_job : job -> string

(** [run_batch_results ?policy t jobs] — the supervised parallel twin of
    {!run}: resolves every job (memo table, then disk cache, then
    compile/simulate fanned over the worker pool, each stage under
    [policy]) and returns per-job outcomes in [jobs] order. The jobs
    that miss both memo and cache are grouped by {!content_key_of_job}:
    a group whose content key already ran in this lab settles at once,
    and every other group is simulated once, by its first job in [jobs]
    order under that job's lease; each member is memoized, stored under
    its own {!summary_key_of_job} and journaled. A failure in one stage
    poisons exactly the jobs that needed its product (a failed compile
    fails that bench's jobs; a group's failed simulation fails every
    member).
    Under the default fail-fast policy a permanent failure raises
    {!Job_failed} instead of being returned. *)
val run_batch_results :
  ?policy:policy -> t -> job list -> (Wish_sim.Runner.summary, failure) result list

(** [run_batch ?policy t jobs] — {!run_batch_results} with failures
    raised: the first failing job (in [jobs] order) aborts with
    {!Job_failed}. Successful output is identical to what serial {!run}
    calls would produce. *)
val run_batch : ?policy:policy -> t -> job list -> Wish_sim.Runner.summary list

(** [prewarm ?policy t jobs] — {!run_batch_results} over
    [with_baselines jobs], results discarded: populates the memo tables
    so a figure generator's serial {!run}/{!normalized} calls all hit.
    Raises {!Job_failed} on a permanent failure unless [policy] has
    [keep_going] set. *)
val prewarm : ?policy:policy -> t -> job list -> unit

(** {1 Derived metrics} *)

(** Execution time normalized to the normal-branch binary on the same
    input and machine (baseline strips the oracle knobs). *)
val normalized :
  t ->
  bench:string ->
  kind:Wish_compiler.Policy.kind ->
  ?input:string ->
  ?config:Wish_sim.Config.t ->
  unit ->
  float

val mean : float list -> float

(** [avg_rows names values] — the paper's AVG / AVGnomcf convention
    (footnote 2: mcf skews the mean). *)
val avg_rows : string list -> (string -> float) -> (string * float) list
