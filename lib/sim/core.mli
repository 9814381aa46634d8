(** The cycle-level out-of-order core.

    Oracle-directed execution: the front end fetches real instructions
    from the static code image along the *predicted* path; a cursor over
    the emulator trace ({!Oracle}) supplies dynamic facts (guard values,
    branch directions, memory addresses) for correct-path µops. Wrong-path
    µops (fetched past a misprediction) and phantom µops (wish-loop extra
    iterations) are fetched from the same image, so their resource
    consumption is modelled faithfully.

    Pipeline model per cycle: completion events → retire → rename/dispatch
    → issue → fetch; a bounded fetch-to-rename delay line realizes the
    front-end depth, which sets the ~30-cycle minimum misprediction
    penalty of Table 2.

    Statistics are exposed through {!stats} as named counters; see
    {!Runner} for the digest most callers want.

    This is the readable reference of the timing core. The product runs
    the compiled core ({!Compiled}); the oracles that diff the two call
    each by name: the measurement-window test in [test/test_sim.ml] and
    the interpreted-exact runner of "canonical config unobservable" in
    [test/test_experiments.ml], [run_interp]/[run_compiled] in
    [bench/sim_smoke.ml] and [bench/simloop.ml], and the fuzzer's sim
    oracle ([lib/fuzz/oracle.ml]). *)

type t

exception Deadlock of string

(** Long-lived microarchitectural state handed to a detailed sampling
    window at creation (built and kept warm by {!Sampler}). The core
    takes ownership of the structures — give each window its own copies. *)
type warm_state = {
  warm_hybrid : Wish_bpred.Hybrid.t;
  warm_btb : Wish_bpred.Btb.t;
  warm_ras : Wish_bpred.Ras.t;
  warm_conf : Wish_bpred.Confidence.t;
  warm_loop : Wish_bpred.Loop_pred.t;
  warm_hier : Wish_mem.Hierarchy.t;
}

(** [create config program trace] — the classic whole-run core. Sampled
    simulation opens a detailed measurement window mid-trace with [warm]
    (pre-warmed predictor/cache state), [start_cursor] (trace index to
    resume the oracle at), [start_pc] (the matching correct-path fetch
    PC) and [release_trace:false] (the coordinating warming pass still
    reads the window's entries and releases them itself). *)
val create :
  ?warm:warm_state ->
  ?start_cursor:int ->
  ?start_pc:int ->
  ?release_trace:bool ->
  Config.t ->
  Wish_isa.Program.t ->
  Wish_emu.Trace.t ->
  t

(** [step t] advances one cycle. Raises {!Deadlock} (with a diagnostic
    dump) if no µop has retired for a very long time. *)
val step : t -> unit

(** [run t] executes until the program's halt retires (or the cycle
    budget is exhausted), then records the cycle count in the stats. *)
val run : t -> t

(** [run_until t ~stop_idx] — run until every trace entry below
    [stop_idx] is covered by a retired µop (or halt / cycle budget). May
    overshoot the boundary by up to one retire group; measure with
    {!retired_trace_idx}. *)
val run_until : t -> stop_idx:int -> t

(** Highest trace index covered by a retired µop so far ([start_cursor]-1
    until the first retire). *)
val retired_trace_idx : t -> int

val halted : t -> bool

val cycles : t -> int
val rob_occupancy : t -> int
val stats : t -> Wish_util.Stats.t
val hier_stats : t -> Wish_mem.Hierarchy.stats

(** [debug_window t n] describes the [n] oldest ROB entries (diagnostics). *)
val debug_window : t -> int -> string
