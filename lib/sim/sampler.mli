(** Interval-sampled simulation (SMARTS-style).

    Alternates cheap {e functional-warming} intervals — the trace cursor
    advances at architectural speed, updating only long-lived state
    (predictors, BTB, RAS, confidence estimator, cache tags) — with short
    {e detailed measurement windows} run on the compiled timing core
    ({!Compiled}) from a copy of the warm state. Rates (µPC, mispredictions per 1K µops) come from
    the measured windows with a 95% confidence interval; total cycles are
    extrapolated with a ratio estimator.

    Windows run on copies while warming continues over the window's own
    entries on the live state, so windows are mutually independent: the
    checkpointed interval-parallel mode (pass [?pool]) produces results
    byte-identical to the serial schedule. *)

(** [warm] functional entries between windows, then [detail] measured
    entries per window (plus an internal detail/4 pipeline-fill lead that
    is simulated in detail but not measured). *)
type spec = { warm : int; detail : int }

val default_spec : spec

(** Raises [Invalid_argument] unless both are positive. *)
val spec : warm:int -> detail:int -> spec

val to_string : spec -> string

(** Parse ["W:D"], e.g. ["18000:2000"]. *)
val of_string : string -> (spec, string) result

(** A spec scaled to the trace length: 12–64 tail windows (more on
    longer traces) plus a densely-sampled head stratum, a few percent
    of entries simulated in detail. *)
val auto : length:int -> spec

type window = {
  w_start : int;  (** first measured trace index *)
  w_entries : int;
  w_cycles : int;
  w_uops : int;
  w_phantom : int;
  w_fetched : int;
  w_flushes : int;
  w_mispredicts : int;
  w_cond : int;
}

type report = {
  r_spec : spec;
  r_windows : window list;
  r_total_insts : int;
  r_measured_entries : int;
  r_measured_cycles : int;
  r_measured_uops : int;
  r_measured_phantom : int;
  r_measured_fetched : int;
  r_measured_flushes : int;
  r_measured_mispredicts : int;
  r_measured_cond : int;
  r_upc : float;
  r_upc_ci : float;  (** 95% CI half-width on the per-window µPC *)
  r_misp_per_1k : float;
  r_misp_ci : float;
  r_est_cycles : int;  (** ratio-estimator whole-run cycle count *)
  r_mem : Wish_mem.Hierarchy.stats;  (** warming caches: full-trace stats *)
}

(** [warm_state_at ~config program trace i] — the functional-warming
    state after entries [0, i): what a detailed window opening at [i]
    receives. Exposed for tests and diagnostics. *)
val warm_state_at :
  config:Config.t -> Wish_isa.Program.t -> Wish_emu.Trace.t -> int -> Core.warm_state

(** [fused_warm_state_at ~config program i] — {!warm_state_at} computed
    trace-free: per-pc warm hooks run inside the compiled emulator, no
    entry is ever encoded. Bit-identical to the trace-based state. *)
val fused_warm_state_at : config:Config.t -> Wish_isa.Program.t -> int -> Core.warm_state

(** [run ?pool ~config ~spec program trace] — sample the whole trace,
    warming from its recorded entries. This is the readable reference of
    {!run_fused}, which the product runs; the [fused] group in
    [test/test_sim.ml], [@sample-smoke] and [bench/sampleloop.ml] call
    both and diff their reports. With [pool] (materialized traces only — the pool is ignored for
    streaming traces) detailed windows fan out across the pool's domains
    in batches. Placement is stratified: the head region [0, period) —
    the initialization ramp systematic sampling would otherwise skip or
    over-weight — gets up to four windows of its own (the first cold),
    and the whole-run estimate weights the head and tail strata by
    length. A trace shorter than the head stride degenerates to a
    single cold full-length window, i.e. the exact simulation. *)
val run :
  ?pool:Wish_util.Pool.t ->
  config:Config.t ->
  spec:spec ->
  Wish_isa.Program.t ->
  Wish_emu.Trace.t ->
  report

(** [run_fused ?pool ~config ~spec program] — {!run} without a trace:
    warm regions execute through per-pc warm hooks fused into the
    compiled emulator, and trace chunks are materialized only for each
    window's span (lead + detail) plus a bounded read-ahead margin.
    Same schedule, same checkpoints, same windows: the report is
    bit-identical to {!run} over this program's streamed trace. With
    [pool], window batches fan out across domains while the trace is
    sealed against generator pulls. *)
val run_fused :
  ?pool:Wish_util.Pool.t -> config:Config.t -> spec:spec -> Wish_isa.Program.t -> report
