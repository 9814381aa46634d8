(* Benchmark worker. Each invocation is one fresh process, because a
   user's [experiments] invocation is one too: the [Workloads.find] memo
   is process-global and would otherwise hide set-up cost.

   Modes (first argument):

     sample     regenerate one workload's tables the way [experiments]
                does (Lab.create, then Lab.prewarm and the generator for
                each artifact, cache on, one worker domain per core) and
                print one JSON line: set-up and timed wall time, CPU,
                peak RSS, job and failure counts, covered instructions,
                every rendered table and, for sampled workloads, each
                job's uPC;
     trace      the same regeneration with driver-level spans, then a
                serial replay of its jobs through each layer's public
                functions, run untraced, traced, untraced; prints the
                per-layer metrics plus the tables for the output gate;
     reference  what the gates and the accuracy metric compare against:
                exact streaming uPCs for sample-long, or the instructions
                simulated by abl-wish-n outside the Lab for fig-warm.

   Options: --workload W --size full|small --input A|C --cache DIR
   (sample, trace) --scratch DIR (trace: replay caches go under it).
   perfbench/run.py drives this program; see perfbench/README.md. *)

open Wish_compiler
module Lab = Wish_experiments.Lab
module Cache = Wish_experiments.Cache
module Figures = Wish_experiments.Figures
module Ablations = Wish_experiments.Ablations
module Table = Wish_util.Table
module Gc_stats = Wish_util.Gc_stats
module Trace = Wish_emu.Trace
module Runner = Wish_sim.Runner
module Sampler = Wish_sim.Sampler
module Bench = Wish_workloads.Bench

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

(* Not [Wish_util.Perf_json]: its emitter rounds floats to six digits,
   and measured times are reported with every digit. *)
type json = Int of int | Num of float | Str of string | Arr of json list | Obj of (string * json) list

let rec json_to_buf b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f -> Buffer.add_string b (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        json_to_buf b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        json_to_buf b (Str k);
        Buffer.add_char b ':';
        json_to_buf b v)
      kvs;
    Buffer.add_char b '}'

let print_json v =
  let b = Buffer.create 4096 in
  json_to_buf b v;
  print_string (Buffer.contents b);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type artifact = { a_name : string; a_jobs : Lab.t -> Lab.job list; a_render : Lab.t -> Table.t }

type spec = {
  scale : int;
  names : string list;
  sampling : Lab.sampling option;
  artifacts : artifact list;
  wish_n : bool;  (** abl-wish-n is rendered: it simulates outside the Lab *)
}

(* The reduced-size variant the self-check runs: two benchmarks instead
   of nine, scale 10 instead of 100. *)
let small_names = [ "gzip"; "gap" ]

let catalog_artifact (name, render) =
  let a_jobs lab =
    match (Figures.jobs_for name lab, Ablations.jobs_for name lab) with
    | js, [] | [], js -> js
    | _ -> invalid_arg ("artifact in both catalogs: " ^ name)
  in
  { a_name = name; a_jobs; a_render = render }

let figure name =
  match Figures.find name with
  | Some f -> catalog_artifact (name, f)
  | None -> invalid_arg ("unknown figure " ^ name)

(* Table 4's columns on an evaluation input other than A: Figures.table4
   is fixed to input A by the paper's protocol. *)
let table4_on input lab =
  let t =
    Table.create
      ~title:(Printf.sprintf "Table 4 columns (input %s)" input)
      ~header:[ "benchmark"; "binary"; "dyn insts"; "dyn uops"; "dyn br"; "misp/1K uops"; "uPC" ]
      ~aligns:Table.[ Left; Left; Right; Right; Right; Right; Right ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun kind ->
          let s = Lab.run lab ~bench:name ~kind ~input () in
          Table.add_row t
            [
              name;
              Policy.kind_name kind;
              string_of_int s.Runner.dynamic_insts;
              string_of_int s.retired_uops;
              string_of_int s.cond_branches;
              Printf.sprintf "%.1f"
                (1000.0 *. float_of_int s.mispredicts /. float_of_int (max 1 s.retired_uops));
              Printf.sprintf "%.3f" s.upc;
            ])
        [ Policy.Normal; Policy.Wish_jjl ])
    (Lab.bench_names lab);
  t

let spec_of ~workload ~size ~input =
  let small = size = "small" in
  let names = if small then small_names else Wish_workloads.Workloads.names in
  match workload with
  | "fig-cold" ->
    { scale = 1; names; sampling = None; artifacts = [ figure "fig10"; figure "fig12" ]; wish_n = false }
  | "fig-warm" ->
    {
      scale = 1;
      names;
      sampling = None;
      artifacts = List.map catalog_artifact (Figures.all @ Ablations.all);
      wish_n = true;
    }
  | "sample-long" ->
    let tab4 =
      if input = Lab.eval_input then figure "tab4"
      else
        {
          a_name = "tab4";
          a_jobs =
            (fun lab ->
              List.map (fun j -> { j with Lab.job_input = input }) (Figures.jobs_for "tab4" lab));
          a_render = table4_on input;
        }
    in
    {
      scale = (if small then 10 else 100);
      names = [ "gzip"; "mcf" ];
      sampling = Some Lab.Sample_auto;
      artifacts = [ tab4 ];
      wish_n = false;
    }
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_layer : string;
  sp_parent : int;  (** -1 for a root *)
  sp_run : int;  (** 1 = driver-level view, 2 = serial replay *)
  sp_t0 : float;
  sp_t1 : float;
}

(* Spans stay in memory until the run ends. [tracing] off makes [span]
   a plain call, so traced and untraced replays do the same work. *)
let tracing = ref false
let spans : span list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0
let run_id = ref 0

let span ~layer name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        open_stack := List.tl !open_stack;
        spans :=
          {
            sp_id = id;
            sp_name = name;
            sp_layer = layer;
            sp_parent = parent;
            sp_run = !run_id;
            sp_t0 = t0;
            sp_t1 = t1;
          }
          :: !spans)
  end

let dur s = s.sp_t1 -. s.sp_t0

(* Self time per span: its duration minus the part its children cover
   (children never overlap: the recorder is single-domain). *)
let self_times run =
  let ss = List.filter (fun s -> s.sp_run = run) !spans in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child s.sp_parent) ~default:0.0 in
      Hashtbl.replace child s.sp_parent (c +. dur s))
    ss;
  List.map (fun s -> (s, dur s -. Option.value (Hashtbl.find_opt child s.sp_id) ~default:0.0)) ss

let layer_self run layer =
  List.fold_left
    (fun acc (s, self) -> if s.sp_layer = layer then acc +. self else acc)
    0.0 (self_times run)

(* Total duration of one run's spans in [layer] whose name is [name],
   or starts with [prefix]. *)
let layer_total run ?name ?(prefix = "") layer =
  List.fold_left
    (fun acc s ->
      let named = match name with Some n -> s.sp_name = n | None -> String.starts_with ~prefix s.sp_name in
      if s.sp_run = run && s.sp_layer = layer && named then acc +. dur s else acc)
    0.0 !spans

(* Counts, recorded at the same boundaries as the spans. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let count key x =
  Hashtbl.replace counts key (x +. Option.value (Hashtbl.find_opt counts key) ~default:0.0)

let counted key = Option.value (Hashtbl.find_opt counts key) ~default:0.0

(* ------------------------------------------------------------------ *)
(* The driver-level flow                                               *)
(* ------------------------------------------------------------------ *)

let policy = { Lab.default_policy with keep_going = true }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let open_lab spec ~cache =
  Lab.create ~scale:spec.scale ~names:spec.names ~jobs:(Wish_util.Pool.default_size ()) ~cache
    ?sample:spec.sampling ()

(* Prewarm and render every artifact, as [experiments] does. Returns the
   rendered tables and the names of the artifacts that failed. *)
let regenerate spec lab =
  let failures = ref [] in
  let tables =
    List.map
      (fun a ->
        let js = a.a_jobs lab in
        if js <> [] then span ~layer:"lab" ("prewarm:" ^ a.a_name) (fun () -> Lab.prewarm ~policy lab js);
        match span ~layer:"figures" ("render:" ^ a.a_name) (fun () -> a.a_render lab) with
        | t -> (a.a_name, Table.render t)
        | exception e ->
          failures := Printf.sprintf "%s: %s" a.a_name (Printexc.to_string e) :: !failures;
          (a.a_name, ""))
      spec.artifacts
  in
  (tables, List.rev !failures)

(* Every summary the tables were built from, once each, in job order. *)
let unique_jobs spec lab =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun a ->
      List.filter
        (fun j ->
          let k = Lab.summary_key_of_job lab j in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        (Lab.with_baselines (a.a_jobs lab)))
    spec.artifacts

let job_name (j : Lab.job) = j.job_bench ^ "/" ^ Policy.kind_name j.job_kind

let run_of lab (j : Lab.job) =
  Lab.run lab ~bench:j.job_bench ~kind:j.job_kind ~input:j.job_input ~config:j.job_config ()

(* Covered instructions and per-job uPCs, read back from the Lab's memo
   after the timed section. Skipped when a job failed: [Lab.run] would
   recompute it serially. *)
let readback spec lab =
  let jobs = unique_jobs spec lab in
  if (Lab.batch_stats lab).failed > 0 then (List.length jobs, 0, [])
  else
    let sums = List.map (fun j -> (j, run_of lab j)) jobs in
    ( List.length jobs,
      List.fold_left (fun acc (_, s) -> acc + s.Runner.dynamic_insts) 0 sums,
      if spec.sampling = None then []
      else List.map (fun (j, s) -> (job_name j, Num s.Runner.upc)) sums )

let tables_json tables = Obj (List.map (fun (n, t) -> (n, Str t)) tables)

let sample spec ~cache_dir =
  let cache = Cache.create ~dir:cache_dir () in
  let t0 = Unix.gettimeofday () in
  let lab = open_lab spec ~cache in
  let setup = Unix.gettimeofday () -. t0 in
  let c1 = cpu_now () and t1 = Unix.gettimeofday () in
  let tables, failures = Fun.protect ~finally:(fun () -> Lab.shutdown lab) (fun () -> regenerate spec lab) in
  let timed = Unix.gettimeofday () -. t1 and cpu = cpu_now () -. c1 in
  let jobs, insts, upcs = readback spec lab in
  let st = Lab.batch_stats lab in
  print_json
    (Obj
       [
         ("setup_s", Num setup);
         ("timed_s", Num timed);
         ("cpu_s", Num cpu);
         ("peak_rss_kb", Int (Gc_stats.peak_rss_kb ()));
         ("jobs", Int jobs);
         ("failed_jobs", Int st.failed);
         ("failures", Arr (List.map (fun s -> Str s) failures));
         ("job_insts", Int insts);
         ("upc", Obj upcs);
         ("tables", tables_json tables);
         ("ocaml", Str Sys.ocaml_version);
       ])

(* ------------------------------------------------------------------ *)
(* Serial replay through each layer's public functions                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec du path =
  match Sys.is_directory path with
  | true -> Array.fold_left (fun acc n -> acc + du (Filename.concat path n)) 0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

let mb bytes = float_of_int bytes /. 1048576.0

(* The programs abl-wish-n compiles and simulates itself, outside the
   Lab's tables, cache and pool (Ablations.wish_threshold_n). *)
let wish_n_programs (keys : Lab.t) =
  List.concat_map
    (fun name ->
      if not (List.mem name (Lab.bench_names keys)) then []
      else begin
        let bench = Lab.bench keys name in
        let profile =
          span ~layer:"compiler" "wish-n:profile" (fun () ->
              let normal, bmap =
                Compiler.compile_kind ~mem_words:bench.mem_words ~name bench.ast Policy.Normal
              in
              count "compiler.binaries" 1.0;
              Compiler.profile_of_run
                (Wish_isa.Program.with_data normal (Bench.profile_data bench))
                bmap)
        in
        List.map
          (fun n ->
            let program, _ =
              span ~layer:"compiler" "wish-n:compile" (fun () ->
                  count "compiler.binaries" 1.0;
                  Codegen.compile ~mem_words:bench.mem_words
                    ~policy:(Policy.create ~profile ~wish_threshold_n:n Policy.Wish_jj)
                    ~name:(name ^ ".n") bench.ast)
            in
            (bench, Bench.program_for bench program Lab.eval_input))
          [ 0; 5; 100 ]
      end)
    [ "gzip"; "twolf"; "gap" ]

let generate bench program =
  span ~layer:"emu" "generate" (fun () ->
      let tr, _ = Trace.generate ~hint:bench.Bench.approx_dyn_insts program in
      count "emu.trace_entries" (float_of_int (Trace.length tr));
      count "emu.trace_resident_words" (float_of_int (Trace.resident_words tr));
      tr)

let simulate_exact ~config ~trace program =
  span ~layer:"sim" "simulate" (fun () ->
      let m0 = Gc.minor_words () in
      let s = Runner.simulate ~config ~trace program in
      count "sim.minor_words" (Gc.minor_words () -. m0);
      count "sim.insts" (float_of_int s.Runner.dynamic_insts);
      count "sim.cycles" (float_of_int s.cycles);
      s)

(* One serial pass over the workload's jobs in the Lab's stage order:
   compile every benchmark, look each summary up under the Lab's key,
   and on a miss look up or generate (and store) the trace, simulate,
   store the summary. Returns the summaries by key and the materialized
   traces of the sampled jobs (for the warming probe). *)
let replay spec ~keys ~(read : Cache.t) ~(write : Cache.t) =
  let jobs = unique_jobs spec keys in
  let bins = Hashtbl.create 16 in
  List.iter
    (fun (j : Lab.job) ->
      if not (Hashtbl.mem bins j.job_bench) then begin
        let b = Lab.bench keys j.job_bench in
        Hashtbl.add bins j.job_bench
          (span ~layer:"compiler" "compile_all" (fun () ->
               count "compiler.binaries" (float_of_int (List.length Compiler.all_kinds));
               Compiler.compile_all ~mem_words:b.mem_words ~name:b.name
                 ~profile_data:(Bench.profile_data b) b.ast))
      end)
    jobs;
  let traces = Hashtbl.create 16 and sampled = ref [] in
  let summaries =
    List.map
      (fun (j : Lab.job) ->
        let key = Lab.summary_key_of_job keys j in
        count "cache.finds" 1.0;
        match span ~layer:"cache" "find:summary" (fun () -> Cache.find read ~kind:"summary" ~key) with
        | Some s ->
          count "cache.hits" 1.0;
          (key, s)
        | None ->
          let bench = Lab.bench keys j.job_bench in
          let kind_n = Policy.kind_name j.job_kind in
          let program =
            Bench.program_for bench (Compiler.binary (Hashtbl.find bins j.job_bench) j.job_kind) j.job_input
          in
          let tkey = (j.job_bench, kind_n, j.job_input) in
          let trace =
            match Hashtbl.find_opt traces tkey with
            | Some tr -> tr
            | None ->
              let ckey = Printf.sprintf "%s|%s|%s|scale%d" j.job_bench kind_n j.job_input spec.scale in
              count "cache.finds" 1.0;
              let tr =
                match span ~layer:"cache" "find:trace" (fun () -> Cache.find read ~kind:"trace" ~key:ckey) with
                | Some tr ->
                  count "cache.hits" 1.0;
                  tr
                | None ->
                  let tr = generate bench program in
                  span ~layer:"cache" "store:trace" (fun () -> Cache.store write ~kind:"trace" ~key:ckey tr);
                  tr
              in
              Hashtbl.add traces tkey tr;
              tr
          in
          let config = j.job_config in
          let s =
            match spec.sampling with
            | None -> simulate_exact ~config ~trace program
            | Some _ ->
              span ~layer:"sampler" "simulate_sampled" (fun () ->
                  let spec = Sampler.auto ~length:(Trace.length trace) in
                  let s, r = Runner.simulate_sampled ~config ~spec ~trace program in
                  count "sampler.windows" (float_of_int (List.length r.Sampler.r_windows));
                  count "sampler.measured" (float_of_int r.r_measured_entries);
                  count "sampler.total" (float_of_int r.r_total_insts);
                  sampled := (config, program, trace) :: !sampled;
                  s)
          in
          span ~layer:"cache" "store:summary" (fun () -> Cache.store write ~kind:"summary" ~key s);
          (key, s))
      jobs
  in
  let t0 = Unix.gettimeofday () in
  let extra =
    if not spec.wish_n then 0
    else
      List.fold_left
        (fun acc (bench, program) ->
          let trace = generate bench program in
          acc + (simulate_exact ~config:Wish_sim.Config.default ~trace program).Runner.dynamic_insts)
        0 (wish_n_programs keys)
  in
  (* abl-wish-n's stage time, which the Lab's prewarm never runs. *)
  count "wish_n_s" (Unix.gettimeofday () -. t0);
  (summaries, extra, List.rev !sampled)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let all_artifacts = List.map fst (Figures.all @ Ablations.all)

let trace_mode spec ~workload ~cache_dir ~scratch =
  let gc0 = Gc_stats.snapshot () in
  (* View 1: the real jobs = nproc flow, with driver-level spans. *)
  tracing := true;
  run_id := 1;
  let tables, failures, lab_summaries, st =
    span ~layer:"driver" "run" (fun () ->
        span ~layer:"workloads" "find" (fun () ->
            List.iter (fun n -> ignore (Wish_workloads.Workloads.find ~scale:spec.scale n)) spec.names);
        let lab = span ~layer:"lab" "create" (fun () -> open_lab spec ~cache:(Cache.create ~dir:cache_dir ())) in
        let tables, failures =
          Fun.protect ~finally:(fun () -> Lab.shutdown lab) (fun () -> regenerate spec lab)
        in
        let summaries =
          if (Lab.batch_stats lab).failed > 0 then []
          else List.map (fun j -> (Lab.summary_key_of_job lab j, run_of lab j)) (unique_jobs spec lab)
        in
        (tables, failures, summaries, Lab.batch_stats lab))
  in
  let gc_real = Gc_stats.diff gc0 (Gc_stats.snapshot ()) in
  let real_wall = layer_total 1 "driver" in
  Gc.compact ();
  (* View 2: the same jobs replayed serially, untraced / traced /
     untraced, each into a fresh cache (or reading the warm one). *)
  let keys = Lab.create ~scale:spec.scale ~names:spec.names ?sample:spec.sampling () in
  let warm = workload = "fig-warm" in
  let mismatches = ref [] in
  let one_replay i ~traced =
    let dir = Filename.concat scratch (Printf.sprintf "replay%d" i) in
    rm_rf dir;
    let write = Cache.create ~dir () in
    let read = if warm then Cache.create ~dir:cache_dir () else write in
    Hashtbl.reset counts;
    tracing := traced;
    run_id := 2;
    let t0 = Unix.gettimeofday () and c0 = cpu_now () in
    let summaries, extra, sampled = span ~layer:"driver" "replay" (fun () -> replay spec ~keys ~read ~write) in
    let wall = Unix.gettimeofday () -. t0 and cpu = cpu_now () -. c0 in
    tracing := false;
    (* The replay must reproduce the Lab's summaries exactly. *)
    List.iter
      (fun (k, s) ->
        match List.assoc_opt k lab_summaries with
        | Some s' when compare s s' = 0 -> ()
        | _ -> mismatches := Printf.sprintf "replay summary differs: %s" k :: !mismatches)
      summaries;
    let written kind = mb (du (Filename.concat dir kind)) in
    let out = (wall, cpu, extra, sampled, written "trace", written "summary") in
    rm_rf dir;
    out
  in
  let _, cpu_a, _, _, _, _ = one_replay 0 ~traced:false in
  Gc.compact ();
  let wall_traced, cpu_traced, extra, sampled, trace_mb, summary_mb = one_replay 1 ~traced:true in
  (* Warming share of the sampled runs: the functional-warming state at
     the end of each trace, outside the replay's root span. *)
  let warm_s, warm_insts =
    List.fold_left
      (fun (s, n) (config, program, trace) ->
        let t0 = Unix.gettimeofday () in
        ignore (Sampler.warm_state_at ~config program trace (Trace.length trace));
        (s +. (Unix.gettimeofday () -. t0), n + Trace.length trace))
      (0.0, 0) sampled
  in
  let counts_traced = Hashtbl.copy counts in
  Gc.compact ();
  let _, cpu_b, _, _, _, _ = one_replay 2 ~traced:false in
  Hashtbl.reset counts;
  Hashtbl.iter (fun k v -> Hashtbl.replace counts k v) counts_traced;
  let per_inst total n = if n > 0.0 then 1e9 *. total /. n else 0.0 in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let replay_total layer = layer_total 2 layer in
  let stage_s =
    List.fold_left (fun acc l -> acc +. replay_total l) 0.0 [ "compiler"; "emu"; "sim"; "sampler"; "cache" ]
    -. counted "wish_n_s"
  in
  let prewarm_s = layer_total 1 ~prefix:"prewarm:" "lab" in
  let sim_s = replay_total "sim" and sim_insts = counted "sim.insts" in
  let render a = layer_total 1 ~name:("render:" ^ a) "figures" in
  let metrics =
    [
      ("workloads.build_s", layer_total 1 "workloads", "s");
      ("lab.create_s", layer_total 1 ~name:"create" "lab", "s");
      ("compiler.compile_s", replay_total "compiler", "s");
      ("compiler.binaries", counted "compiler.binaries", "count");
      ("emu.trace_ns_per_inst", per_inst (replay_total "emu") (counted "emu.trace_entries"), "ns");
      ("emu.trace_entries", counted "emu.trace_entries", "count");
      ("emu.trace_resident_mb", mb (8 * int_of_float (counted "emu.trace_resident_words")), "MB");
      ("sim.ns_per_inst", per_inst sim_s sim_insts, "ns");
      ("sim.ns_per_cycle", per_inst sim_s (counted "sim.cycles"), "ns");
      ("sim.minor_words_per_inst", ratio (counted "sim.minor_words") sim_insts, "words");
      ("sim.insts", sim_insts, "count");
      ("sim.cycles", counted "sim.cycles", "count");
      ("sampler.run_s", replay_total "sampler", "s");
      ("sampler.warm_s", warm_s, "s");
      ("sampler.warm_ns_per_inst", per_inst warm_s (float_of_int warm_insts), "ns");
      ("sampler.detail_fraction", ratio (counted "sampler.measured") (counted "sampler.total"), "ratio");
      ("sampler.windows", counted "sampler.windows", "count");
      ("cache.store_s", layer_total 2 ~prefix:"store:" "cache", "s");
      ("cache.find_s", layer_total 2 ~prefix:"find:" "cache", "s");
      ("cache.trace_mb_written", trace_mb, "MB");
      ("cache.summary_mb_written", summary_mb, "MB");
      ("cache.hit_ratio", ratio (counted "cache.hits") (counted "cache.finds"), "ratio");
      ("lab.prewarm_s", prewarm_s, "s");
      ("lab.tasks_executed", float_of_int st.executed, "count");
      ("lab.cache_hits", float_of_int st.cache_hits, "count");
      ("lab.retried", float_of_int st.retried, "count");
      ("lab.failed", float_of_int st.failed, "count");
      ("lab.parallel_speedup", ratio stage_s prewarm_s, "ratio");
      ("figures.render_s", layer_total 1 "figures", "s");
    ]
    @ List.map (fun a -> ("figures.render_s." ^ a, render a, "s")) all_artifacts
    @ [
        ("gc.minor_mwords", gc_real.Gc_stats.minor_words /. 1e6, "Mwords");
        ("gc.major_mwords", gc_real.major_words /. 1e6, "Mwords");
        ("gc.top_heap_mwords", float_of_int gc_real.top_heap_words /. 1e6, "Mwords");
        ("trace.real_wall_s", real_wall, "s");
        ("trace.real_uncovered_s", layer_self 1 "driver", "s");
      ]
    @ List.map
        (fun l -> ("self_s." ^ l, layer_self 1 l, "s"))
        [ "workloads"; "lab"; "figures" ]
    @ List.map
        (fun l -> ("self_s." ^ l, layer_self 2 l, "s"))
        [ "compiler"; "emu"; "sim"; "sampler"; "cache" ]
    @ [
        ("trace.replay_wall_s", wall_traced, "s");
        ("trace.replay_uncovered_s", layer_self 2 "driver", "s");
        (* CPU rather than wall time: the serial replay runs on one
           domain, and CPU time does not count time other processes
           took from it. *)
        ("trace.overhead_s", cpu_traced -. ((cpu_a +. cpu_b) /. 2.0), "s");
        ("trace.spans", float_of_int (List.length !spans), "count");
      ]
  in
  print_json
    (Obj
       [
         ("metrics", Obj (List.map (fun (n, v, u) -> (n, Obj [ ("value", Num v); ("unit", Str u) ])) metrics));
         ("jobs", Int (List.length (unique_jobs spec keys)));
         ("failed_jobs", Int st.failed);
         ("failures", Arr (List.map (fun s -> Str s) (failures @ List.rev !mismatches)));
         ("extra_insts", Int extra);
         ("tables", tables_json tables);
         ("ocaml", Str Sys.ocaml_version);
       ])

(* ------------------------------------------------------------------ *)
(* Reference values                                                    *)
(* ------------------------------------------------------------------ *)

let reference spec ~workload =
  let keys = Lab.create ~scale:spec.scale ~names:spec.names () in
  match workload with
  | "sample-long" ->
    (* Exact streaming simulation of each sampled job: the uPCs the
       sampled estimates are scored against. *)
    let sampled_keys = Lab.create ~scale:spec.scale ~names:spec.names ?sample:spec.sampling () in
    let upcs =
      List.map
        (fun (j : Lab.job) ->
          let program = Lab.program keys ~bench:j.job_bench ~kind:j.job_kind ~input:j.job_input in
          let s = Runner.simulate ~config:j.job_config ~streaming:true program in
          (job_name j, Num s.Runner.upc))
        (unique_jobs spec sampled_keys)
    in
    print_json (Obj [ ("ref_upc", Obj upcs) ])
  | _ ->
    let extra =
      if not spec.wish_n then 0
      else
        List.fold_left
          (fun acc (_, p) -> acc + Trace.length (fst (Trace.generate p)))
          0 (wish_n_programs keys)
    in
    print_json (Obj [ ("extra_insts", Int extra) ])

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and size = ref "full" and input = ref Lab.eval_input in
  let cache_dir = ref "" and scratch = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "fig-cold | fig-warm | sample-long");
      ("--size", Arg.Set_string size, "full (default) | small");
      ("--input", Arg.Set_string input, "evaluation input of sample-long (A or C)");
      ("--cache", Arg.Set_string cache_dir, "cache directory the Lab uses");
      ("--scratch", Arg.Set_string scratch, "directory for the replay caches (trace mode)");
    ]
  in
  let usage = "wbench.exe (sample|trace|reference) --workload W [options]" in
  Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  let need name v = if v = "" then (prerr_endline (name ^ " is required\n" ^ usage); exit 2) in
  need "--workload" !workload;
  let spec =
    try spec_of ~workload:!workload ~size:!size ~input:!input
    with Invalid_argument e -> prerr_endline e; exit 2
  in
  match mode with
  | "sample" ->
    need "--cache" !cache_dir;
    sample spec ~cache_dir:!cache_dir
  | "trace" ->
    need "--cache" !cache_dir;
    need "--scratch" !scratch;
    trace_mode spec ~workload:!workload ~cache_dir:!cache_dir ~scratch:!scratch
  | "reference" -> reference spec ~workload:!workload
  | _ ->
    prerr_endline usage;
    exit 2
