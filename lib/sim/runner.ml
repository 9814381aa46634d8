(** Convenience driver: trace a program with the emulator, simulate it, and
    summarize the interesting numbers. *)

type summary = {
  cycles : int;
  dynamic_insts : int; (* ISA instructions retired (trace entries) *)
  retired_uops : int; (* correct-path µops retired *)
  retired_phantom : int;
  fetched_uops : int;
  flushes : int;
  mispredicts : int; (* retired mispredicted conditional branches *)
  cond_branches : int;
  upc : float; (* retired µops per cycle *)
  stats : Wish_util.Stats.t;
  mem : Wish_mem.Hierarchy.stats;
}

(** [simulate ?config ?streaming ?trace program] — [trace] may be
    supplied to reuse a previously generated trace for the same program.
    [streaming] (default [false]) fuses emulation into simulation: the
    oracle pulls trace chunks on demand and retirement recycles them, so
    peak trace-resident memory is bounded by the pipeline's look-back
    window instead of the dynamic instruction count. Both paths produce
    identical summaries (the test suite checks this). *)
let simulate ?(config = Config.default) ?(streaming = false) ?trace
    (program : Wish_isa.Program.t) =
  let trace =
    match trace with
    | Some t -> t
    | None ->
      if streaming then Wish_emu.Trace.stream program
      else
        let t, _final = Wish_emu.Trace.generate program in
        t
  in
  let core = Compiled.run (Compiled.create config program trace) in
  let stats = Compiled.stats core and cycles = Compiled.cycles core in
  let g = Wish_util.Stats.get stats in
  {
    cycles;
    (* A streamed trace has been pulled through its final entry by the
       time the core retires Halt, so [length] is the full dynamic count
       here too. *)
    dynamic_insts = Wish_emu.Trace.length trace;
    retired_uops = g "retired_correct";
    retired_phantom = g "retired_phantom";
    fetched_uops = g "fetched_uops";
    flushes = g "flushes";
    mispredicts = g "mispredicts_retired";
    cond_branches = g "cond_branches_retired";
    upc =
      (if cycles = 0 then 0.0 else float_of_int (g "retired_correct") /. float_of_int cycles);
    stats;
    mem = Compiled.hier_stats core;
  }

(** [simulate_sampled] — the sampled counterpart of {!simulate}: same
    summary shape, numbers estimated from the measurement windows, plus
    the full {!Sampler.report}. The headline counters (cycles, retired
    µops, mispredicts) use the sampler's stratified estimates; secondary
    counters are expanded with the plain measured-fraction ratio. *)
let simulate_sampled ?(config = Config.default) ?pool ?(spec : Sampler.spec option) ?trace
    (program : Wish_isa.Program.t) =
  let r =
    match trace with
    | None ->
      (* Warm trace-free; an auto spec is sized by a count-only emulator
         run instead of a materialized trace's length. *)
      let spec =
        match spec with Some s -> s | None -> Sampler.auto ~length:(Wish_emu.Trace.count program)
      in
      Sampler.run_fused ?pool ~config ~spec program
    | Some trace ->
      let spec =
        match spec with Some s -> s | None -> Sampler.auto ~length:(Wish_emu.Trace.length trace)
      in
      Sampler.run ?pool ~config ~spec program trace
  in
  let round f = int_of_float (Float.round f) in
  let expand x =
    if r.Sampler.r_measured_entries = 0 then 0
    else
      round (float_of_int x *. float_of_int r.r_total_insts /. float_of_int r.r_measured_entries)
  in
  let retired_uops = round (r.r_upc *. float_of_int r.r_est_cycles) in
  let stats = Wish_util.Stats.create () in
  Wish_util.Stats.set stats "sample_windows" (List.length r.r_windows);
  Wish_util.Stats.set stats "sample_measured_entries" r.r_measured_entries;
  Wish_util.Stats.set stats "sample_measured_cycles" r.r_measured_cycles;
  Wish_util.Stats.set stats "retired_correct" r.r_measured_uops;
  Wish_util.Stats.set stats "retired_phantom" r.r_measured_phantom;
  Wish_util.Stats.set stats "fetched_uops" r.r_measured_fetched;
  Wish_util.Stats.set stats "flushes" r.r_measured_flushes;
  Wish_util.Stats.set stats "mispredicts_retired" r.r_measured_mispredicts;
  Wish_util.Stats.set stats "cond_branches_retired" r.r_measured_cond;
  let summary =
    {
      cycles = r.r_est_cycles;
      dynamic_insts = r.r_total_insts;
      retired_uops;
      retired_phantom = expand r.r_measured_phantom;
      fetched_uops = expand r.r_measured_fetched;
      flushes = expand r.r_measured_flushes;
      mispredicts = round (r.r_misp_per_1k *. float_of_int retired_uops /. 1000.0);
      cond_branches = expand r.r_measured_cond;
      upc = r.r_upc;
      stats;
      mem = r.r_mem;
    }
  in
  (summary, r)
