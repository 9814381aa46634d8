(** Convenience driver: trace a program with the emulator, simulate it,
    and summarize the interesting numbers. *)

type summary = {
  cycles : int;
  dynamic_insts : int;  (** ISA instructions retired (trace entries) *)
  retired_uops : int;  (** correct-path µops retired *)
  retired_phantom : int;
  fetched_uops : int;
  flushes : int;
  mispredicts : int;  (** retired mispredicted conditional branches *)
  cond_branches : int;
  upc : float;  (** retired µops per cycle *)
  stats : Wish_util.Stats.t;  (** every raw counter of the run *)
  mem : Wish_mem.Hierarchy.stats;
}

(** [simulate ?config ?streaming ?trace program] — pass [trace] to reuse
    a previously generated trace for the same program, or [~streaming:true]
    to fuse emulation into simulation through a bounded-memory streaming
    trace (identical summary, peak trace residency independent of run
    length). The run uses the compiled core ({!Compiled}); the header of
    its reference {!Core} lists the oracles that diff the two. *)
val simulate :
  ?config:Config.t ->
  ?streaming:bool ->
  ?trace:Wish_emu.Trace.t ->
  Wish_isa.Program.t ->
  summary

(** [simulate_sampled ?pool ?spec ?trace ...] — sampled counterpart of
    {!simulate}: functional warming plus detailed measurement windows
    (see {!Sampler}), returning an estimated summary of the same shape
    together with the full sampling report; [pool] fans detailed windows
    out in parallel. With no [trace], warming runs trace-free through
    {!Sampler.run_fused} and an omitted [spec] is {!Sampler.auto} sized
    by {!Wish_emu.Trace.count}. A supplied [trace] (materialized, when
    [spec] is omitted: the auto spec is sized by its {!Wish_emu.Trace.length})
    is sampled by the trace-based reference {!Sampler.run}; the report is
    bit-identical either way. The summary's [stats] bag carries the
    measured window sums ([sample_windows], [sample_measured_entries],
    raw counter sums), not whole-run counts. *)
val simulate_sampled :
  ?config:Config.t ->
  ?pool:Wish_util.Pool.t ->
  ?spec:Sampler.spec ->
  ?trace:Wish_emu.Trace.t ->
  Wish_isa.Program.t ->
  summary * Sampler.report
