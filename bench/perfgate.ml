(* Performance regression gate: re-times a representative case from each
   recorded BENCH_*.json baseline (machine-local, gitignored — written
   by simloop.exe / emuloop.exe / sampleloop.exe) and fails (exit 1) when the fresh
   compiled-path reading exceeds baseline × tolerance.

   The smoke aliases in runtest guard *correctness* plus a conservative
   relative floor (compiled vs interp in the same process); this gate is
   the *absolute* check — it catches a quietly regressed compiled path
   whose interp twin regressed with it. Because it compares against
   numbers measured on a possibly different (and possibly loaded)
   machine, the default tolerance band is generous and the gate is not
   wired into runtest; run it by hand or from a perf CI lane:

     dune build bench/perfgate.exe && ./_build/default/bench/perfgate.exe

   from the repository root (the baselines are read from the cwd).
   Usage: perfgate.exe [--gc-tune] [--tol X] [--sim-iters N] [--emu-iters N]
   [--hot-iters N] [--sample-iters N] (defaults: tol 1.6, 8 sim runs, 3
   emu runs, 30 hot runs, 3 sample runs per case; timed work is a small
   representative subset, not the full matrices — simloop.exe,
   emuloop.exe, sampleloop.exe, and hotloop.exe remain the owners of the
   baseline files). *)

module J = Wish_util.Perf_json
module Gc_stats = Wish_util.Gc_stats
module Runner = Wish_sim.Runner
module Exec = Wish_emu.Exec
module State = Wish_emu.State
module Policy = Wish_compiler.Policy

let failures = ref 0

let gate ~tol ~label ~baseline ~fresh =
  let ratio = fresh /. baseline in
  let ok = ratio <= tol in
  if not ok then incr failures;
  Printf.printf "%-28s baseline %9.0f ns  fresh %9.0f ns  ratio %4.2f (tol %.2f)  %s\n%!"
    label baseline fresh ratio tol
    (if ok then "ok" else "REGRESSION")
  [@ocamlformat "disable"]

(* Baseline lookup: cases.<case>.<field> as a float, with distinct
   diagnostics for a missing case and a missing field. *)
let baseline_of json ~file ~case ~field =
  match J.member "cases" json with
  | None -> Error (Printf.sprintf "%s: no \"cases\" object" file)
  | Some cases -> (
    match J.member case cases with
    | None -> Error (Printf.sprintf "%s: no case %S" file case)
    | Some c -> (
      match Option.bind (J.member field c) J.to_float_opt with
      | None -> Error (Printf.sprintf "%s: case %S has no numeric %S" file case field)
      | Some v -> Ok v))

let scale_of json ~default =
  match Option.bind (J.member "scale" json) J.to_float_opt with
  | Some s -> int_of_float s
  | None -> default

(* Best-of-[iters] timing (plus one untimed warmup): the minimum is the
   reading least polluted by scheduler interference, matching how the
   baselines themselves were reduced. *)
let best_ns ~iters f =
  f ();
  let best = ref infinity in
  for _ = 1 to iters do
    let t0 = Sys.time () in
    f ();
    best := min !best (1e9 *. (Sys.time () -. t0))
  done;
  !best

let program_for ~scale name kind =
  let bench = Wish_workloads.Workloads.find ~scale name in
  let bins =
    Wish_compiler.Compiler.compile_all ~mem_words:bench.mem_words ~name:bench.name
      ~profile_data:(Wish_workloads.Bench.profile_data bench) bench.ast
  in
  Wish_workloads.Bench.program_for bench (Wish_compiler.Compiler.binary bins kind) "A"

(* ----------------------------------------------------------------- *)
(* Simulator gate: fresh compiled_ns_per_run vs BENCH_sim.json        *)
(* ----------------------------------------------------------------- *)

let sim_cases = [ ("gzip", Policy.Wish_jjl); ("mcf", Policy.Base_max) ]

let gate_sim ~tol ~iters json =
  let scale = scale_of json ~default:1 in
  let config = Wish_sim.Config.default in
  List.iter
    (fun (name, kind) ->
      let case = Printf.sprintf "%s_%s" name (Policy.kind_name kind) in
      match baseline_of json ~file:"BENCH_sim.json" ~case ~field:"compiled_ns_per_run" with
      | Error msg ->
        incr failures;
        Printf.printf "%-28s %s\n%!" ("sim:" ^ case) msg
      | Ok baseline ->
        let program = program_for ~scale name kind in
        let trace, _final = Wish_emu.Trace.generate program in
        let fresh =
          best_ns ~iters (fun () -> ignore (Runner.simulate ~config ~trace program))
        in
        gate ~tol ~label:("sim:" ^ case) ~baseline ~fresh)
    sim_cases

(* ----------------------------------------------------------------- *)
(* Emulator gate: fresh compiled_ns_per_inst vs BENCH_emu.json        *)
(* ----------------------------------------------------------------- *)

let emu_cases = [ ("gzip", Exec.Architectural) ]

let gate_emu ~tol ~iters json =
  let scale = scale_of json ~default:10 in
  List.iter
    (fun (name, mode) ->
      let tag = match mode with Exec.Architectural -> "arch" | Exec.Predicate_through -> "pt" in
      let case = Printf.sprintf "%s_%s" name tag in
      match baseline_of json ~file:"BENCH_emu.json" ~case ~field:"compiled_ns_per_inst" with
      | Error msg ->
        incr failures;
        Printf.printf "%-28s %s\n%!" ("emu:" ^ case) msg
      | Ok baseline ->
        let program = program_for ~scale name Policy.Wish_jjl in
        let compiled = Wish_emu.Compiled.compile ~mode (Wish_isa.Program.code program) in
        let o = Exec.make_out () in
        let retired = ref 0 in
        let fresh_run =
          best_ns ~iters (fun () ->
              let st = State.create program in
              Wish_emu.Compiled.run_to_halt compiled st o ~sink:Wish_emu.Compiled.no_sink
                ~fuel:max_int;
              retired := st.State.retired)
        in
        (* Per-inst like the baseline; state creation rides inside the
           timed region but is noise at scale-10 instruction counts. *)
        let fresh = fresh_run /. float_of_int (max 1 !retired) in
        gate ~tol ~label:("emu:" ^ case) ~baseline ~fresh)
    emu_cases

(* ----------------------------------------------------------------- *)
(* Sampled-warming gate: fresh fused_ns_per_inst vs BENCH_sample.json *)
(* ----------------------------------------------------------------- *)

(* Re-times the fused (trace-free) warming path end to end — the same
   whole-pipeline measurement sampleloop.exe records — on one
   representative workload per baseline case. *)
let sample_cases = [ "gzip"; "mcf" ]

let gate_sample ~tol ~iters json =
  let scale = scale_of json ~default:10 in
  let config = Wish_sim.Config.default in
  List.iter
    (fun name ->
      match baseline_of json ~file:"BENCH_sample.json" ~case:name ~field:"fused_ns_per_inst" with
      | Error msg ->
        incr failures;
        Printf.printf "%-28s %s\n%!" ("sample:" ^ name) msg
      | Ok baseline ->
        let program = program_for ~scale name Policy.Wish_jjl in
        (* Same fixed sparse spec as sampleloop (see Sample_spec), so
           gate and baseline measure the same pipeline. One untimed
           materialized trace pins the dynamic length for the ns/inst
           normalization, exactly as sampleloop does. *)
        let trace, _final = Wish_emu.Trace.generate program in
        let total = Wish_emu.Trace.length trace in
        let spec = Sample_spec.spec in
        let fresh_run =
          best_ns ~iters (fun () ->
              ignore (Wish_sim.Sampler.run_fused ~config ~spec program))
        in
        let fresh = fresh_run /. float_of_int (max 1 total) in
        gate ~tol ~label:("sample:" ^ name) ~baseline ~fresh)
    sample_cases

(* ----------------------------------------------------------------- *)
(* Hot-loop gate: fresh ns_per_run vs BENCH_hotloop.json              *)
(* ----------------------------------------------------------------- *)

(* The same tiny-hammock cases hotloop.exe records (the shared kernel in
   Hotkernels keeps both harnesses honest). The baseline's reduction is
   a mean over hundreds of runs; best-of here biases the fresh reading
   low, which the tolerance band absorbs. *)
let gate_hotloop ~tol ~iters json =
  List.iter
    (fun (case, config, wish) ->
      match baseline_of json ~file:"BENCH_hotloop.json" ~case ~field:"ns_per_run" with
      | Error msg ->
        incr failures;
        Printf.printf "%-28s %s\n%!" ("hot:" ^ case) msg
      | Ok baseline ->
        let program = Hotkernels.tiny_hammock ~wish in
        let trace, _final = Wish_emu.Trace.generate program in
        let fresh =
          best_ns ~iters (fun () -> ignore (Runner.simulate ~config ~trace program))
        in
        gate ~tol ~label:("hot:" ^ case) ~baseline ~fresh)
    Hotkernels.cases

let () =
  let rec parse (tol, sim_iters, emu_iters, hot_iters, sample_iters, tune) = function
    | [] -> (tol, sim_iters, emu_iters, hot_iters, sample_iters, tune)
    | "--tol" :: v :: rest ->
      parse (float_of_string v, sim_iters, emu_iters, hot_iters, sample_iters, tune) rest
    | "--sim-iters" :: v :: rest ->
      parse (tol, int_of_string v, emu_iters, hot_iters, sample_iters, tune) rest
    | "--emu-iters" :: v :: rest ->
      parse (tol, sim_iters, int_of_string v, hot_iters, sample_iters, tune) rest
    | "--hot-iters" :: v :: rest ->
      parse (tol, sim_iters, emu_iters, int_of_string v, sample_iters, tune) rest
    | "--sample-iters" :: v :: rest ->
      parse (tol, sim_iters, emu_iters, hot_iters, int_of_string v, tune) rest
    | "--gc-tune" :: rest -> parse (tol, sim_iters, emu_iters, hot_iters, sample_iters, true) rest
    | a :: _ ->
      Printf.eprintf "perfgate: unknown argument %s\n" a;
      exit 2
  in
  let tol, sim_iters, emu_iters, hot_iters, sample_iters, gc_tune =
    parse (1.6, 8, 3, 30, 3, false) (List.tl (Array.to_list Sys.argv))
  in
  if gc_tune then Gc_stats.tune ();
  (* Missing and malformed baselines are different situations: the first
     means "never measured on this machine", the second means the file on
     disk is damaged (torn write, manual edit) — [J.read_file] is total,
     so a damaged file surfaces here as a message, never a crash. *)
  let with_baseline file k =
    match J.read_file file with
    | Ok json -> k json
    | Error msg ->
      incr failures;
      if Sys.file_exists file then
        Printf.printf
          "%-28s malformed baseline: %s (delete it or regenerate with the matching bench \
           harness)\n\
           %!"
          file msg
      else
        Printf.printf "%-28s missing baseline: %s (regenerate with the matching bench harness)\n%!"
          file msg
  in
  with_baseline "BENCH_sim.json" (gate_sim ~tol ~iters:sim_iters);
  with_baseline "BENCH_emu.json" (gate_emu ~tol ~iters:emu_iters);
  with_baseline "BENCH_sample.json" (gate_sample ~tol ~iters:sample_iters);
  with_baseline "BENCH_hotloop.json" (gate_hotloop ~tol ~iters:hot_iters);
  if !failures > 0 then begin
    Printf.printf "perfgate: %d failure(s)\n%!" !failures;
    exit 1
  end;
  Printf.printf "perfgate: ok\n%!"
