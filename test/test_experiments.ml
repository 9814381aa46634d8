(* Experiment-harness tests on a reduced lab (two benchmarks) so the suite
   stays fast while covering caching, figure structure, and the headline
   directional results. *)

module Lab = Wish_experiments.Lab
module Figures = Wish_experiments.Figures
module Cache = Wish_experiments.Cache
module Policy = Wish_compiler.Policy
module Config = Wish_sim.Config

let check = Alcotest.check

(* Full-fidelity summary comparison: the headline fields plus every raw
   counter, in recording order. *)
let summary_repr (s : Wish_sim.Runner.summary) =
  Format.asprintf "cycles=%d insts=%d uops=%d flushes=%d misp=%d upc=%.6f %a" s.cycles
    s.dynamic_insts s.retired_uops s.flushes s.mispredicts s.upc
    (Fmt.list ~sep:Fmt.comma (Fmt.pair ~sep:(Fmt.any "=") Fmt.string Fmt.int))
    (Wish_util.Stats.to_assoc s.stats)

(* One lab shared by all tests: results are memoized inside. *)
let lab = lazy (Lab.create ~scale:1 ~names:[ "gzip"; "gap" ] ())

let test_lab_caches_results () =
  let lab = Lazy.force lab in
  let a = Lab.run lab ~bench:"gap" ~kind:Policy.Normal () in
  let b = Lab.run lab ~bench:"gap" ~kind:Policy.Normal () in
  Alcotest.(check bool) "same physical result" true (a == b);
  let c = Lab.run lab ~bench:"gap" ~kind:Policy.Normal ~config:(Config.with_rob Config.default 128) () in
  Alcotest.(check bool) "different config differs" true (a != c)

let test_normalized_baseline_is_one () =
  let lab = Lazy.force lab in
  check (Alcotest.float 1e-9) "normal/normal = 1" 1.0
    (Lab.normalized lab ~bench:"gzip" ~kind:Policy.Normal ())

let test_perfect_bp_wins () =
  let lab = Lazy.force lab in
  let config = { Config.default with knobs = { Config.no_knobs with perfect_bp = true } } in
  Alcotest.(check bool) "PERFECT-CBP below 1" true
    (Lab.normalized lab ~bench:"gzip" ~kind:Policy.Normal ~config () < 0.95)

let test_wish_adapts_on_gap () =
  (* gap: predictable branches. BASE-MAX pays predication overhead; the
     wish binary must stay close to normal (the paper's adaptivity claim). *)
  let lab = Lazy.force lab in
  let base_max = Lab.normalized lab ~bench:"gap" ~kind:Policy.Base_max () in
  let wish = Lab.normalized lab ~bench:"gap" ~kind:Policy.Wish_jj () in
  Alcotest.(check bool) "BASE-MAX pays overhead" true (base_max > 1.1);
  Alcotest.(check bool) "wish avoids most of it" true (wish < 1.1)

let test_wish_wins_on_gzip () =
  let lab = Lazy.force lab in
  let wish = Lab.normalized lab ~bench:"gzip" ~kind:Policy.Wish_jjl () in
  Alcotest.(check bool) "wish-jjl beats normal on gzip" true (wish < 1.0)

let row_count table =
  (* Rendered tables have one line per row plus borders; count data lines. *)
  let s = Wish_util.Table.render table in
  List.length (List.filter (fun l -> String.length l > 0 && l.[0] = '|') (String.split_on_char '\n' s))

let test_figure_structure () =
  let lab = Lazy.force lab in
  (* Two benchmarks: per-benchmark figures have 2 data rows + header (+2 avg
     rows for exec-time figures). *)
  check Alcotest.int "fig1 rows" 3 (row_count (Figures.fig1 lab));
  check Alcotest.int "fig10 rows" 5 (row_count (Figures.fig10 lab));
  check Alcotest.int "fig11 rows" 3 (row_count (Figures.fig11 lab));
  check Alcotest.int "fig12 rows" 5 (row_count (Figures.fig12 lab));
  check Alcotest.int "fig13 rows" 3 (row_count (Figures.fig13 lab));
  check Alcotest.int "fig14 rows" 7 (row_count (Figures.fig14 lab));
  check Alcotest.int "tab5 rows" 4 (row_count (Figures.table5 lab))

let test_all_artifacts_listed () =
  check
    Alcotest.(list string)
    "artifact ids"
    [ "fig1"; "fig2"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15"; "fig16"; "tab4"; "tab5" ]
    (List.map fst Figures.all);
  Alcotest.(check bool) "find works" true (Figures.find "fig10" <> None);
  Alcotest.(check bool) "find rejects junk" true (Figures.find "fig99" = None)

let test_fig2_ordering () =
  (* Idealization can only help: NO-DEPEND+NO-FETCH <= NO-DEPEND <= BASE-MAX
     (on gap, where predication overhead is the story). *)
  let lab = Lazy.force lab in
  let v knobs = Lab.normalized lab ~bench:"gap" ~kind:Policy.Base_max
      ~config:{ Config.default with knobs } () in
  let base = v Config.no_knobs in
  let nd = v { Config.no_knobs with no_depend = true } in
  let ndnf = v { Config.no_knobs with no_depend = true; no_fetch = true } in
  Alcotest.(check bool) "no-depend helps" true (nd <= base +. 0.01);
  Alcotest.(check bool) "no-fetch helps further" true (ndnf <= nd +. 0.01)

(* ------------------------------------------------------------------ *)
(* Parallel batch determinism                                          *)
(* ------------------------------------------------------------------ *)

let grid lab =
  let small = Config.with_rob Config.default 128 in
  List.concat_map
    (fun bench ->
      [
        Lab.job ~bench ~kind:Policy.Normal ();
        Lab.job ~bench ~kind:Policy.Wish_jj ();
        Lab.job ~bench ~kind:Policy.Wish_jj ~config:small ();
        Lab.job ~bench ~kind:Policy.Base_max ();
      ])
    (Lab.bench_names lab)

let test_run_batch_matches_serial () =
  (* The same workload grid through 4 worker domains and through plain
     serial [run] must produce identical summaries (the lab's tables are
     bit-identical whatever --jobs is). *)
  let names = [ "gzip" ] in
  let par = Lab.create ~scale:1 ~names ~jobs:4 () in
  let ser = Lab.create ~scale:1 ~names () in
  let batch = Lab.run_batch par (grid par) in
  let serial =
    List.map
      (fun (j : Lab.job) ->
        Lab.run ser ~bench:j.job_bench ~kind:j.job_kind ~input:j.job_input ~config:j.job_config ())
      (grid ser)
  in
  Lab.shutdown par;
  List.iteri
    (fun i (a, b) ->
      check Alcotest.string (Printf.sprintf "job %d identical" i) (summary_repr b) (summary_repr a))
    (List.combine batch serial);
  (* run_batch populated the memo tables: a follow-up serial run on the
     parallel lab returns the memoized object itself. *)
  let again = Lab.run par ~bench:"gzip" ~kind:Policy.Normal () in
  Alcotest.(check bool) "memo hit after batch" true (List.nth batch 0 == again)

(* ------------------------------------------------------------------ *)
(* Persistent artifact cache                                           *)
(* ------------------------------------------------------------------ *)

(* Tests run in the build sandbox; a relative directory stays inside it. *)
let cache_dir = "_test_wishcache"

let test_cache_roundtrip () =
  let dir = cache_dir ^ "_rt" in
  let cache = Cache.create ~dir () in
  Cache.clear cache;
  let fresh = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache () in
  let a = Lab.run fresh ~bench:"gzip" ~kind:Policy.Wish_jj () in
  (* A brand-new lab over the same directory must resolve the same key
     from disk, without recompiling or resimulating. *)
  let warm = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache () in
  let hits = ref [] in
  Lab.set_logger warm (fun s -> hits := s :: !hits);
  let b = Lab.run warm ~bench:"gzip" ~kind:Policy.Wish_jj () in
  check Alcotest.string "summary read back equals freshly computed" (summary_repr a)
    (summary_repr b);
  Alcotest.(check bool) "served from cache" true
    (List.exists (fun s -> String.length s >= 9 && String.sub s 0 9 = "cache hit") !hits);
  Alcotest.(check bool) "no simulation ran" false
    (List.exists (fun s -> String.length s >= 10 && String.sub s 0 10 = "simulating") !hits)

let test_cache_version_invalidation () =
  let dir = cache_dir ^ "_ver" in
  let v1 = Cache.create ~dir ~version:1 () in
  Cache.clear v1;
  Cache.store v1 ~kind:"summary" ~key:"k" (42, "payload");
  check
    Alcotest.(option (pair int string))
    "same version hits" (Some (42, "payload"))
    (Cache.find v1 ~kind:"summary" ~key:"k");
  (* A bumped format version must miss (and evict) rather than
     deserialize stale data. *)
  let v2 = Cache.create ~dir ~version:2 () in
  check
    Alcotest.(option (pair int string))
    "bumped version misses" None
    (Cache.find v2 ~kind:"summary" ~key:"k");
  check
    Alcotest.(option (pair int string))
    "stale entry evicted" None
    (Cache.find v1 ~kind:"summary" ~key:"k")

let test_cache_prune_retired () =
  let dir = cache_dir ^ "_prune" in
  let c = Cache.create ~dir () in
  Cache.clear c;
  Cache.store c ~kind:"summary" ~key:"s" 1;
  Cache.store c ~kind:"trace" ~key:"t" [| 2 |];
  let r = Cache.prune c in
  check Alcotest.int "summary kept" 1 r.kept;
  check Alcotest.int "trace entry evicted as retired" 1 r.evicted_retired;
  check Alcotest.int "nothing stale" 0 r.evicted_stale;
  check Alcotest.(list string) "only the summary is left" [ "summary" ]
    (List.map (fun (rel, _) -> Filename.dirname rel) (Cache.scan c));
  Alcotest.(check bool) "retired kind directory removed" false
    (Sys.file_exists (Filename.concat dir "trace"))

(* ------------------------------------------------------------------ *)
(* Trace-free lab                                                      *)
(* ------------------------------------------------------------------ *)

module Trace = Wish_emu.Trace
module Runner = Wish_sim.Runner
module Sampler = Wish_sim.Sampler

let rec rm_rf d =
  if Sys.file_exists d then
    if Sys.is_directory d then begin
      Array.iter (fun f -> rm_rf (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d
    end
    else Sys.remove d

let files_under d = if Sys.file_exists d then Array.length (Sys.readdir d) else 0

let test_lab_writes_no_traces () =
  let dir = cache_dir ^ "_notrace" in
  rm_rf dir;
  let lab = Lab.create ~scale:1 ~names:[ "gzip" ] ~jobs:2 ~cache:(Cache.create ~dir ()) () in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
  Lab.prewarm lab (Figures.jobs_for "fig10" lab);
  check Alcotest.int "no trace-kind entries" 0 (files_under (Filename.concat dir "trace"));
  Alcotest.(check bool) "summaries were stored" true
    (files_under (Filename.concat dir "summary") > 0)

let test_lab_exact_matches_materialized () =
  (* Exact Lab jobs stream emulation into the core; the summary must be
     the one a materialized trace yields. *)
  let lab = Lab.create ~scale:1 ~names:[ "gzip" ] ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
  let jobs = Lab.with_baselines (Figures.jobs_for "fig10" lab) in
  List.iter2
    (fun (j : Lab.job) s ->
      let p = Lab.program lab ~bench:j.job_bench ~kind:j.job_kind ~input:j.job_input in
      let reference = Runner.simulate ~config:j.job_config ~trace:(fst (Trace.generate p)) p in
      check Alcotest.string
        (Printf.sprintf "%s/%s" j.job_bench (Policy.kind_name j.job_kind))
        (summary_repr reference) (summary_repr s))
    jobs (Lab.run_batch lab jobs)

let test_lab_sampled_matches_materialized () =
  (* Sampled Lab jobs never see a trace: Sample_auto sizes its spec with
     a count-only run and both modes warm fused. The reference samples a
     materialized trace with the spec that trace implies. *)
  let fixed = Sampler.spec ~warm:40_000 ~detail:2_000 in
  List.iter
    (fun scale ->
      let names = [ "gzip"; "mcf" ] in
      let auto = Lab.create ~scale ~names ~sample:Lab.Sample_auto () in
      let spec = Lab.create ~scale ~names ~sample:(Lab.Sample_spec fixed) () in
      let jobs =
        List.concat_map
          (fun bench ->
            List.concat_map
              (fun input ->
                List.map (fun kind -> Lab.job ~bench ~kind ~input ()) [ Policy.Normal; Policy.Wish_jjl ])
              [ "A"; "C" ])
          names
      in
      let rows = List.combine jobs (List.combine (Lab.run_batch auto jobs) (Lab.run_batch spec jobs)) in
      List.iter
        (fun ((j : Lab.job), (s_auto, s_spec)) ->
          let p = Lab.program auto ~bench:j.job_bench ~kind:j.job_kind ~input:j.job_input in
          let trace = fst (Trace.generate p) in
          let reference spec =
            summary_repr (fst (Runner.simulate_sampled ~config:j.job_config ~spec ~trace p))
          in
          let what mode =
            Printf.sprintf "scale %d %s/%s input %s, %s" scale j.job_bench
              (Policy.kind_name j.job_kind) j.job_input mode
          in
          check Alcotest.string (what "auto")
            (reference (Sampler.auto ~length:(Trace.length trace)))
            (summary_repr s_auto);
          check Alcotest.string (what "fixed spec") (reference fixed) (summary_repr s_spec))
        rows)
    [ 1; 10 ]

let test_trace_count_matches_generate () =
  let lab = Lab.create ~scale:1 () in
  let outcome f = match f () with n -> Ok n | exception Trace.Out_of_fuel n -> Error n in
  Fun.protect ~finally:(fun () -> Trace.use_interpreter := false) @@ fun () ->
  List.iter
    (fun bench ->
      List.iter
        (fun kind ->
          let p = Lab.program lab ~bench ~kind ~input:Lab.eval_input in
          let what = Printf.sprintf "%s/%s" bench (Policy.kind_name kind) in
          let n = Trace.length (fst (Trace.generate p)) in
          List.iter
            (fun interp ->
              Trace.use_interpreter := interp;
              let what = what ^ if interp then " (interpreter)" else "" in
              check Alcotest.int (what ^ " count") n (Trace.count p);
              (* Fuel parity: the same verdict as generate at, just under,
                 and far below the dynamic length. *)
              List.iter
                (fun fuel ->
                  check
                    Alcotest.(result int int)
                    (Printf.sprintf "%s fuel %d" what fuel)
                    (outcome (fun () -> Trace.length (fst (Trace.generate ~fuel p))))
                    (outcome (fun () -> Trace.count ~fuel p)))
                [ n; n - 1; 1_000 ])
            [ false; true ])
        Wish_compiler.Compiler.all_kinds)
    (Lab.bench_names lab)

let () =
  Alcotest.run "wish_experiments"
    [
      ( "lab",
        [
          Alcotest.test_case "caches results" `Quick test_lab_caches_results;
          Alcotest.test_case "baseline is one" `Quick test_normalized_baseline_is_one;
        ] );
      ( "parallel",
        [ Alcotest.test_case "run_batch = serial run" `Slow test_run_batch_matches_serial ] );
      ( "cache",
        [
          Alcotest.test_case "round-trip fidelity" `Slow test_cache_roundtrip;
          Alcotest.test_case "version invalidation" `Quick test_cache_version_invalidation;
          Alcotest.test_case "prune evicts retired kinds" `Quick test_cache_prune_retired;
        ] );
      ( "direction",
        [
          Alcotest.test_case "perfect bp wins" `Slow test_perfect_bp_wins;
          Alcotest.test_case "wish adapts on gap" `Slow test_wish_adapts_on_gap;
          Alcotest.test_case "wish wins on gzip" `Slow test_wish_wins_on_gzip;
          Alcotest.test_case "fig2 ordering" `Slow test_fig2_ordering;
        ] );
      ( "figures",
        [
          Alcotest.test_case "structure" `Slow test_figure_structure;
          Alcotest.test_case "artifact list" `Quick test_all_artifacts_listed;
        ] );
      ( "trace-free lab",
        [
          Alcotest.test_case "no trace cache entries" `Slow test_lab_writes_no_traces;
          Alcotest.test_case "exact = materialized" `Slow test_lab_exact_matches_materialized;
          Alcotest.test_case "sampled = materialized" `Slow test_lab_sampled_matches_materialized;
          Alcotest.test_case "count = generate length" `Slow test_trace_count_matches_generate;
        ] );
    ]
