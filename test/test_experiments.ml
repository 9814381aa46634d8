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

let test_digest_ignores_sharing () =
  (* Keys must depend on a value's structure only: a deep copy (which
     drops physical sharing) and a config rebuilt field by field digest
     equal to the original. *)
  let copy v = Marshal.from_string (Marshal.to_string v [ Marshal.No_sharing ]) 0 in
  let d = Config.default in
  let rebuilt =
    {
      d with
      Config.knobs =
        { Config.perfect_bp = false; perfect_conf = false; no_depend = false; no_fetch = false };
      bpred = copy d.bpred;
      hier = copy d.hier;
      conf = copy d.conf;
    }
  in
  Alcotest.(check bool) "rebuilt config is equal" true (rebuilt = d);
  check Alcotest.string "config and its deep copy" (Cache.digest_of d) (Cache.digest_of (copy d));
  check Alcotest.string "config built two ways" (Cache.digest_of d) (Cache.digest_of rebuilt);
  let lab = Lab.create ~scale:1 ~names:[ "gzip" ] () in
  List.iter
    (fun kind ->
      let code = (Lab.program lab ~bench:"gzip" ~kind ~input:Lab.eval_input).code in
      check Alcotest.string
        (Policy.kind_name kind ^ " code image and its copy")
        (Cache.digest_of code) (Cache.digest_of (copy code)))
    Wish_compiler.Compiler.all_kinds

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
  List.iter
    (fun bench ->
      List.iter
        (fun kind ->
          let p = Lab.program lab ~bench ~kind ~input:Lab.eval_input in
          let what = Printf.sprintf "%s/%s" bench (Policy.kind_name kind) in
          let n = Trace.length (fst (Trace.generate p)) in
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
        Wish_compiler.Compiler.all_kinds)
    (Lab.bench_names lab)

(* ------------------------------------------------------------------ *)
(* Compile variants (Ablation A4 through the lab)                      *)
(* ------------------------------------------------------------------ *)

module Ablations = Wish_experiments.Ablations
module Compiler = Wish_compiler.Compiler
module Codegen = Wish_compiler.Codegen
module Bench = Wish_workloads.Bench

let a4_names = [ "gzip"; "twolf"; "gap" ]
let a4_thresholds = [ 0; 5; 100 ]

(* The training profile as A4 used to recompute it: the normal binary
   run over the bench's profiling input. *)
let direct_profile (b : Bench.t) =
  let normal, bmap = Compiler.compile_kind ~mem_words:b.mem_words ~name:b.name b.ast Policy.Normal in
  Compiler.profile_of_run (Wish_isa.Program.with_data normal (Bench.profile_data b)) bmap

let profile_repr (p : Policy.profile) =
  List.sort compare
    (Hashtbl.fold (fun id (c : Policy.branch_profile) acc -> (id, c.executed, c.cond_true) :: acc) p [])

let test_compile_all_profile () =
  List.iter
    (fun name ->
      let b = Wish_workloads.Workloads.find ~scale:1 name in
      let bins = Compiler.compile_all ~mem_words:b.mem_words ~name ~profile_data:(Bench.profile_data b) b.ast in
      Alcotest.(check (list (triple int int int)))
        (name ^ " profile") (profile_repr (direct_profile b)) (profile_repr bins.profile))
    a4_names

let test_variant_matches_direct () =
  (* Batched (pooled) and serial variant summaries must both equal the
     direct path: profile, recompile with the threshold, simulate a
     materialized trace. *)
  let par = Lab.create ~scale:1 ~names:a4_names ~jobs:2 () in
  let ser = Lab.create ~scale:1 ~names:a4_names () in
  Fun.protect ~finally:(fun () -> Lab.shutdown par) @@ fun () ->
  let jobs =
    List.concat_map
      (fun bench -> List.map (fun n -> Lab.job ~bench ~kind:Policy.Wish_jj ~wish_n:n ()) a4_thresholds)
      a4_names
  in
  List.iter2
    (fun (j : Lab.job) batched ->
      let b = Lab.bench par j.job_bench in
      let n = Option.get j.job_wish_n in
      let policy = Policy.create ~profile:(direct_profile b) ~wish_threshold_n:n Policy.Wish_jj in
      let p, _ = Codegen.compile ~mem_words:b.mem_words ~policy ~name:(b.name ^ ".n") b.ast in
      let p = Bench.program_for b p Lab.eval_input in
      let reference = summary_repr (Runner.simulate ~trace:(fst (Trace.generate p)) p) in
      let what = Lab.describe_job j in
      check Alcotest.string (what ^ " batched") reference (summary_repr batched);
      check Alcotest.string (what ^ " serial") reference
        (summary_repr (Lab.run ser ~bench:j.job_bench ~kind:Policy.Wish_jj ~wish_n:n ())))
    jobs (Lab.run_batch par jobs)

let test_variant_keys () =
  let lab = Lab.create ~scale:1 ~names:[ "gzip" ] () in
  let key ?wish_n () = Lab.summary_key_of_job lab (Lab.job ~bench:"gzip" ~kind:Policy.Wish_jj ?wish_n ()) in
  check Alcotest.string "standard key is the historic one"
    ("gzip|wish-jump-join|A|scale1|cfg" ^ Cache.digest_of Config.default)
    (key ());
  Alcotest.(check bool) "N=5 variant does not alias standard wish-jj" true (key ~wish_n:5 () <> key ());
  Alcotest.(check bool) "variants are distinct" true (key ~wish_n:0 () <> key ~wish_n:5 ());
  check Alcotest.string "variant names its binary" "gzip/wish-jump-join.n5 input A"
    (Lab.describe_job (Lab.job ~bench:"gzip" ~kind:Policy.Wish_jj ~wish_n:5 ()));
  let base = Lab.baseline_of (Lab.job ~bench:"gzip" ~kind:Policy.Wish_jj ~wish_n:5 ()) in
  Alcotest.(check bool) "baseline is the standard normal binary" true
    (base.job_wish_n = None && base.job_kind = Policy.Normal);
  let sampled = Lab.create ~scale:1 ~names:[ "gzip" ] ~sample:Lab.Sample_auto () in
  check Alcotest.string "sampled standard key keeps its historic suffix"
    ("gzip|wish-jump-join|A|scale1|cfg" ^ Cache.digest_of Config.default ^ "|sampleauto")
    (Lab.summary_key_of_job sampled (Lab.job ~bench:"gzip" ~kind:Policy.Wish_jj ()))

let prefixed p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let test_a4_table_cached_and_pooled () =
  let dir = cache_dir ^ "_a4" in
  rm_rf dir;
  let render ?cache ?(jobs = 1) () =
    let lab = Lab.create ~scale:1 ~names:a4_names ~jobs ?cache () in
    Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
    let log = ref [] in
    Lab.set_logger lab (fun s -> log := s :: !log);
    let table = Wish_util.Table.render (Ablations.wish_threshold_n lab) in
    (table, List.rev !log, Lab.batch_stats lab)
  in
  let cold, _, _ = render ~cache:(Cache.create ~dir ()) () in
  let warm, log, st = render ~cache:(Cache.create ~dir ()) () in
  let pooled, _, _ = render ~jobs:2 () in
  check Alcotest.string "warm = cold" cold warm;
  check Alcotest.string "pooled, uncached = cold" cold pooled;
  Alcotest.(check (list string)) "warm lab simulates nothing" []
    (List.filter (prefixed "simulating") log);
  check Alcotest.int "every variant and baseline is a cache hit" 12 st.cache_hits;
  (* Stage-1 compiles stay eager: the warm lab still builds its three
     benches' standard binaries, and runs no simulate task. *)
  check Alcotest.int "only the three compile tasks ran" 3 st.executed;
  check Alcotest.int "one compile line per bench" 3
    (List.length (List.filter (prefixed "compiling") log))

let test_a4_under_faults () =
  (* The variants run under the same supervision as every job: a
     simulate fault armed while A4 renders is retried, and the table
     does not change. *)
  let render faults =
    let lab = Lab.create ~scale:1 ~names:a4_names ~jobs:2 () in
    Fun.protect ~finally:(fun () -> Lab.shutdown lab; Wish_util.Faultpoint.reset ()) @@ fun () ->
    Lab.prewarm lab (Ablations.jobs_for "abl-wish-n" lab);
    Wish_util.Faultpoint.arm "lab.simulate" ~times:faults;
    let table = Wish_util.Table.render (Ablations.wish_threshold_n lab) in
    (table, Wish_util.Faultpoint.injected "lab.simulate", Lab.batch_stats lab)
  in
  let clean, _, _ = render 0 in
  let chaotic, injected, st = render 3 in
  check Alcotest.string "A4 byte-identical under injected simulate faults" clean chaotic;
  check Alcotest.int "all three faults fired" 3 injected;
  check Alcotest.int "each faulted variant was retried" 3 st.retried;
  check Alcotest.int "nothing failed" 0 st.failed

(* ------------------------------------------------------------------ *)
(* Shared runs: one simulation per distinct program                    *)
(* ------------------------------------------------------------------ *)

module Faultpoint = Wish_util.Faultpoint

let shared_names = [ "gzip"; "mcf"; "vortex"; "twolf" ]
let distinct xs = List.length (List.sort_uniq compare xs)

(* Order-preserving dedup. *)
let uniq_by key xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    xs

(* The full-fidelity comparison plus the memory hierarchy's counters. *)
let full_repr (s : Runner.summary) =
  let m = s.mem in
  Printf.sprintf "%s mem=%d/%d/%d/%d/%d/%d" (summary_repr s) m.l1i_accesses m.l1i_misses
    m.l1d_accesses m.l1d_misses m.l2_accesses m.l2_misses

let test_shared_runs_match_direct () =
  (* fig10 then fig12, as `experiments` prewarms them, into a cold cache:
     every job's summary must be the one a direct simulation of its own
     program and config yields, and each distinct program runs once. *)
  let dir = cache_dir ^ "_shared" in
  rm_rf dir;
  let figures = [ "fig10"; "fig12" ] in
  let with_lab f =
    let lab = Lab.create ~scale:1 ~names:shared_names ~jobs:2 ~cache:(Cache.create ~dir ()) () in
    Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
    let log = ref [] in
    Lab.set_logger lab (fun s -> log := s :: !log);
    List.iter (fun fig -> Lab.prewarm lab (Figures.jobs_for fig lab)) figures;
    f lab (List.rev !log)
  in
  let jobs lab =
    List.sort_uniq compare
      (List.concat_map (fun fig -> Lab.with_baselines (Figures.jobs_for fig lab)) figures)
  in
  with_lab (fun lab log ->
      let jobs = jobs lab in
      let programs = distinct (List.map (Lab.content_key_of_job lab) jobs) in
      let st = Lab.batch_stats lab in
      Alcotest.(check bool) "some jobs share a program" true (programs < List.length jobs);
      check Alcotest.int "one simulating line per distinct program" programs
        (List.length (List.filter (prefixed "simulating") log));
      check Alcotest.int "simulate tasks = distinct programs (plus 4 compiles)"
        (programs + List.length shared_names) st.executed;
      check Alcotest.int "every other job shared a run" (List.length jobs - programs) st.shared;
      check Alcotest.int "one shared line per sharing job" st.shared
        (List.length (List.filter (prefixed "shared: ") log));
      List.iter2
        (fun (j : Lab.job) s ->
          let p = Lab.program lab ~bench:j.job_bench ~kind:j.job_kind ~input:j.job_input in
          check Alcotest.string
            (Lab.describe_job j ^ " = its own direct simulation")
            (full_repr (Runner.simulate ~config:j.job_config p))
            (full_repr s))
        jobs (Lab.run_batch lab jobs));
  (* Every member was stored under its own key: a second lab simulates
     nothing. *)
  with_lab (fun lab log ->
      Alcotest.(check (list string)) "warm lab simulates nothing" []
        (List.filter (fun l -> prefixed "simulating" l || prefixed "shared" l) log);
      check Alcotest.int "every job is a cache hit" (List.length (jobs lab))
        (Lab.batch_stats lab).cache_hits)

(* The fields [Config.wish_free_canonical] resets, each set away from
   its default. *)
let wish_field_variants =
  let d = Config.default in
  [
    ("conf", { d with conf = { d.conf with Wish_bpred.Confidence.threshold = 4 } });
    ("use_loop_predictor", { d with use_loop_predictor = false });
    ("wish_hardware", { d with wish_hardware = false });
    ("perfect_conf", { d with knobs = { d.knobs with perfect_conf = true } });
  ]

let test_canonical_config_unobservable () =
  (* Each reset field, varied alone, must leave every wish-free binary's
     result unchanged, and the content key must not see it. Three
     runners are checked, each against its own default-config run: the
     compiled exact product path, the interpreted reference core over a
     generated trace, and Sample_auto. The runs fan over two domains. *)
  let lab = Lab.create ~scale:1 () in
  List.iter
    (fun (field, config) ->
      check Alcotest.bool (field ^ " is reset") true
        (Config.wish_free_canonical config = Config.wish_free_canonical Config.default))
    wish_field_variants;
  let programs =
    List.concat_map
      (fun bench ->
        List.filter_map
          (fun kind ->
            let p = Lab.program lab ~bench ~kind ~input:Lab.eval_input in
            if Wish_isa.Code.static_wish_branches p.code > 0 then None else Some (bench, kind, p))
          Compiler.all_kinds
        |> uniq_by (fun (_, _, (p : Wish_isa.Program.t)) -> Cache.digest_of p.code))
      (Lab.bench_names lab)
  in
  check Alcotest.int "wish-free programs" 20 (List.length programs);
  List.iter
    (fun (bench, kind, _) ->
      let key config = Lab.content_key_of_job lab (Lab.job ~bench ~kind ~config ()) in
      List.iter
        (fun (field, config) ->
          check Alcotest.string
            (Printf.sprintf "%s/%s content key, %s varied" bench (Policy.kind_name kind) field)
            (key Config.default) (key config))
        wish_field_variants)
    programs;
  let interpreted_exact config p =
    let core = Wish_sim.Core.run (Wish_sim.Core.create config p (fst (Trace.generate p))) in
    let m = Wish_sim.Core.hier_stats core in
    Format.asprintf "cycles=%d %a mem=%d/%d/%d/%d/%d/%d" (Wish_sim.Core.cycles core)
      (Fmt.list ~sep:Fmt.comma (Fmt.pair ~sep:(Fmt.any "=") Fmt.string Fmt.int))
      (Wish_util.Stats.to_assoc (Wish_sim.Core.stats core))
      m.l1i_accesses m.l1i_misses m.l1d_accesses m.l1d_misses m.l2_accesses m.l2_misses
  in
  let modes =
    [
      ("exact", fun config p -> full_repr (Runner.simulate ~config ~streaming:true p));
      ("interpreted exact", interpreted_exact);
      ("Sample_auto", fun config p -> full_repr (fst (Runner.simulate_sampled ~config p)));
    ]
  in
  let cases =
    List.concat_map
      (fun (bench, kind, p) ->
        List.map (fun (mode, sim) -> (Printf.sprintf "%s/%s %s" bench (Policy.kind_name kind) mode, sim, p)) modes)
      programs
  in
  let pool = Wish_util.Pool.create ~size:2 () in
  Fun.protect ~finally:(fun () -> Wish_util.Pool.shutdown pool) @@ fun () ->
  let configs = Config.default :: List.map snd wish_field_variants in
  let runs = Wish_util.Pool.map pool (fun (_, sim, p) -> List.map (fun c -> sim c p) configs) cases in
  List.iter2
    (fun (what, _, _) -> function
      | reference :: varied ->
        List.iter2
          (fun (field, _) v ->
            check Alcotest.string (Printf.sprintf "%s, %s varied" what field) reference v)
          wish_field_variants varied
      | [] -> assert false)
    cases runs

let test_shared_faults () =
  (* gzip's BASE-DEF binary is its normal binary byte for byte. *)
  let jobs = [ Lab.job ~bench:"gzip" ~kind:Policy.Normal (); Lab.job ~bench:"gzip" ~kind:Policy.Base_def () ] in
  let clean = Lab.create ~scale:1 ~names:[ "gzip" ] () in
  check Alcotest.int "one program" 1 (distinct (List.map (Lab.content_key_of_job clean) jobs));
  let expected = List.map full_repr (Lab.run_batch clean jobs) in
  let faulty times policy =
    let lab = Lab.create ~scale:1 ~names:[ "gzip" ] () in
    Fun.protect ~finally:Faultpoint.reset @@ fun () ->
    Faultpoint.arm "lab.simulate" ~times;
    let out = Lab.run_batch_results ~policy lab jobs in
    (out, Faultpoint.injected "lab.simulate", Lab.batch_stats lab)
  in
  (* A faulted representative is retried; both jobs get its run. *)
  let out, injected, st = faulty 1 { Lab.default_policy with backoff = 0.0 } in
  check Alcotest.int "the fault fired" 1 injected;
  check Alcotest.int "the representative was retried" 1 st.retried;
  check Alcotest.int "the other job shared its run" 1 st.shared;
  check
    Alcotest.(list string)
    "summaries as fault-free" expected
    (List.map (function Ok s -> full_repr s | Error _ -> "failed") out);
  (* Exhausted retries fail every member, under keep_going. *)
  let out, _, st = faulty 3 { Lab.default_policy with backoff = 0.0; keep_going = true } in
  check Alcotest.int "one task failed" 1 st.failed;
  check Alcotest.int "nothing shared" 0 st.shared;
  List.iter2
    (fun (j : Lab.job) o ->
      match o with
      | Error (fl : Lab.failure) -> check Alcotest.string (Lab.describe_job j ^ " failed") "simulate" fl.failed_stage
      | Ok _ -> Alcotest.fail (Lab.describe_job j ^ " should have failed"))
    jobs out

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
          Alcotest.test_case "digest ignores sharing" `Quick test_digest_ignores_sharing;
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
      ( "compile variants",
        [
          Alcotest.test_case "compile_all keeps its profile" `Quick test_compile_all_profile;
          Alcotest.test_case "variant = direct recompile" `Slow test_variant_matches_direct;
          Alcotest.test_case "keys" `Quick test_variant_keys;
          Alcotest.test_case "A4 cached and pooled" `Slow test_a4_table_cached_and_pooled;
          Alcotest.test_case "A4 under faults" `Slow test_a4_under_faults;
        ] );
      ( "shared runs",
        [
          Alcotest.test_case "fig10+fig12 = direct simulations" `Slow test_shared_runs_match_direct;
          Alcotest.test_case "canonical config unobservable" `Slow test_canonical_config_unobservable;
          Alcotest.test_case "faults on a representative" `Slow test_shared_faults;
        ] );
    ]
