(* CPU-time A/B harness for the timing simulator: the full fig10 detailed
   matrix — every workload crossed with every binary kind — simulated
   through both cores,

     interp     the interpreted reference ({!Wish_sim.Core})
     compiled   the per-pc-template core ({!Wish_sim.Compiled})

   under the default detailed configuration. Each case first runs an
   untimed identity gate (cycle count, the full stats bag, the memory
   hierarchy counters, and a pooled compiled re-run must all agree); the
   timed region then measures whole runs over a pre-generated trace —
   [Core.create] + [Core.run] for the reference, [Runner.simulate] (the
   exact unit of work the figure pipeline schedules) for the compiled
   core — interleaved round-robin so scheduler noise on a shared box
   taxes both paths alike, taking each path's best (minimum) segment.
   Reports ns/run and GC pressure per path and case, the per-case speedup,
   and matrix-level aggregates (min/geomean speedup, total matrix time,
   minor-allocation ratio). Twin JSON report in BENCH_sim.json — the sole
   owner of that file. Usage: simloop.exe [--gc-tune] [--scale N] [ITERS]
   (defaults: scale 1 — the figure-table scale — and 18 timed runs per
   path per case). *)

module Core = Wish_sim.Core
module Compiled = Wish_sim.Compiled
module Runner = Wish_sim.Runner
module Stats = Wish_util.Stats
module Gc_stats = Wish_util.Gc_stats
module Policy = Wish_compiler.Policy

let kinds = Policy.[ Normal; Base_def; Base_max; Wish_jj; Wish_jjl ]

let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "FAIL simloop: %s\n" m; exit 1) fmt

let program_for ~scale name kind =
  let bench = Wish_workloads.Workloads.find ~scale name in
  let bins =
    Wish_compiler.Compiler.compile_all ~mem_words:bench.mem_words ~name:bench.name
      ~profile_data:(Wish_workloads.Bench.profile_data bench) bench.ast
  in
  Wish_workloads.Bench.program_for bench (Wish_compiler.Compiler.binary bins kind) "A"

(* ----------------------------------------------------------------- *)
(* Identity gate                                                      *)
(* ----------------------------------------------------------------- *)

let run_interp config program trace =
  let core = Core.create config program trace in
  ignore (Core.run core);
  (Core.cycles core, Stats.to_assoc (Core.stats core), Core.hier_stats core)

let run_compiled config program trace =
  let core = Compiled.create config program trace in
  ignore (Compiled.run core);
  (Compiled.cycles core, Stats.to_assoc (Compiled.stats core), Compiled.hier_stats core)

let check_identity ~tag config program trace =
  let ci, si, mi = run_interp config program trace in
  let cc, sc, mc = run_compiled config program trace in
  if ci <> cc then fail "%s: cycles differ (interp %d, compiled %d)" tag ci cc;
  if mi <> mc then fail "%s: hierarchy stats differ" tag;
  (if si <> sc then begin
     List.iter
       (fun (k, v) ->
         match List.assoc_opt k sc with
         | Some v' when v' = v -> ()
         | Some v' -> Printf.eprintf "  %s: interp %d compiled %d\n" k v v'
         | None -> Printf.eprintf "  %s: interp %d, missing in compiled\n" k v)
       si;
     fail "%s: stats differ" tag
   end);
  let cc2, sc2, mc2 = run_compiled config program trace in
  if (cc, sc, mc) <> (cc2, sc2, mc2) then fail "%s: pooled compiled re-run differs" tag;
  ci

(* ----------------------------------------------------------------- *)
(* Timing                                                             *)
(* ----------------------------------------------------------------- *)

(* Interleaved timing cycles per case: both paths run one timed batch per
   cycle, so a slow window on a shared box taxes them alike. *)
let cycles = 6

(* Time both paths over [rounds] whole simulate-runs each. Returns
   per-path (best ns/run, mean minor words/run) for
   [| interp; compiled |]. *)
let time_case ~config ~program ~trace ~rounds =
  let paths =
    [|
      (fun () -> ignore (run_interp config program trace));
      (fun () -> ignore (Runner.simulate ~config ~trace program));
    |]
  in
  let batch = max 1 ((rounds + cycles - 1) / cycles) in
  let n = Array.length paths in
  let best = Array.make n infinity
  and minor = Array.make n 0.0
  and done_ = Array.make n 0 in
  for _ = 1 to cycles do
    Array.iteri
      (fun j run ->
        let b = min batch (rounds - done_.(j)) in
        if b > 0 then begin
          let g0 = Gc_stats.snapshot () in
          let t0 = Sys.time () in
          for _ = 1 to b do
            run ()
          done;
          let seg = Sys.time () -. t0 in
          best.(j) <- min best.(j) (1e9 *. seg /. float_of_int b);
          minor.(j) <-
            minor.(j) +. (Gc_stats.diff g0 (Gc_stats.snapshot ())).Gc_stats.minor_words;
          done_.(j) <- done_.(j) + b
        end)
      paths
  done;
  Array.init n (fun j -> (best.(j), minor.(j) /. float_of_int done_.(j)))

let bench_case ~iters ~config ~scale name kind =
  let tag = Printf.sprintf "%s_%s" name (Policy.kind_name kind) in
  let program = program_for ~scale name kind in
  let trace, _final = Wish_emu.Trace.generate program in
  let cycles_run = check_identity ~tag config program trace in
  let timings = time_case ~config ~program ~trace ~rounds:iters in
  let i_ns, i_mw = timings.(0) in
  let c_ns, c_mw = timings.(1) in
  let speedup = i_ns /. c_ns in
  Printf.printf
    "%-16s %8d cyc  interp %8.0f ns/run (%8.0f w)  compiled %8.0f ns/run (%7.0f w)  %5.2fx\n%!"
    tag cycles_run i_ns i_mw c_ns c_mw speedup
  [@ocamlformat "disable"];
  let open Wish_util.Perf_json in
  ( (speedup, i_ns, c_ns, i_mw, c_mw),
    ( tag,
      Obj
        [
          ("cycles", Int cycles_run);
          ("interp_ns_per_run", Float i_ns);
          ("interp_minor_words_per_run", Float i_mw);
          ("compiled_ns_per_run", Float c_ns);
          ("compiled_minor_words_per_run", Float c_mw);
          ("speedup", Float speedup);
          ("minor_words_ratio_pct", Float (100.0 *. c_mw /. i_mw));
        ] ) )

let () =
  let rec parse (scale, iters, tune) = function
    | [] -> (scale, iters, tune)
    | "--scale" :: v :: rest -> parse (int_of_string v, iters, tune) rest
    | "--gc-tune" :: rest -> parse (scale, iters, true) rest
    | a :: rest ->
      parse (scale, Option.fold ~none:iters ~some:Fun.id (int_of_string_opt a), tune) rest
  in
  let scale, iters, gc_tune = parse (1, 18, false) (List.tl (Array.to_list Sys.argv)) in
  if gc_tune then Gc_stats.tune ();
  let config = Wish_sim.Config.default in
  let wall0 = Unix.gettimeofday () in
  let cases =
    List.concat_map
      (fun name -> List.map (fun kind -> bench_case ~iters ~config ~scale name kind) kinds)
      Wish_workloads.Workloads.names
  in
  let vals = List.map fst cases in
  let min_speedup = List.fold_left (fun m (s, _, _, _, _) -> min m s) infinity vals in
  let geomean =
    exp
      (List.fold_left (fun a (s, _, _, _, _) -> a +. log s) 0.0 vals
      /. float_of_int (List.length vals))
  in
  let sum f = List.fold_left (fun a v -> a +. f v) 0.0 vals in
  let i_total = sum (fun (_, i, _, _, _) -> i) and c_total = sum (fun (_, _, c, _, _) -> c) in
  let i_minor = sum (fun (_, _, _, m, _) -> m) and c_minor = sum (fun (_, _, _, _, m) -> m) in
  Printf.printf
    "matrix: interp %.1f ms  compiled %.1f ms  overall %.2fx  geomean %.2fx  min %.2fx  minor %.1f%%\n%!"
    (i_total /. 1e6) (c_total /. 1e6) (i_total /. c_total) geomean min_speedup
    (100.0 *. c_minor /. i_minor);
  Printf.printf "gc: %s; peak RSS %d KiB\n%!" (Gc_stats.summary_line ())
    (Gc_stats.peak_rss_kb ());
  let open Wish_util.Perf_json in
  let g = Gc_stats.snapshot () in
  write_file "BENCH_sim.json"
    (Obj
       [
         ("bench", String "simloop");
         ("scale", Int scale);
         ("iters", Int iters);
         ("wall_s", Float (Unix.gettimeofday () -. wall0));
         ("overall_speedup", Float (i_total /. c_total));
         ("geomean_speedup", Float geomean);
         ("min_speedup", Float min_speedup);
         ("interp_matrix_ns", Float i_total);
         ("compiled_matrix_ns", Float c_total);
         ("minor_words_ratio_pct", Float (100.0 *. c_minor /. i_minor));
         ("minor_words", Float g.minor_words);
         ("major_words", Float g.major_words);
         ("peak_rss_kb", of_rss (Gc_stats.peak_rss_kb_opt ()));
         ("cases", Obj (List.map snd cases));
       ])
