(* Workload tests: each benchmark compiles into five architecturally
   equivalent binaries on every input, runs deterministically, and shows
   the branch behaviour its paper counterpart is meant to mimic. *)

open Wish_workloads

let check = Alcotest.check

let scale = 1

let compile (b : Bench.t) =
  Wish_compiler.Compiler.compile_all ~mem_words:b.mem_words ~name:b.name
    ~profile_data:(Bench.profile_data b) b.ast

(* Compile everything once; the equivalence sweep reuses these. *)
let all = Workloads.all ~scale
let compiled = lazy (List.map (fun b -> (b, compile b)) all)

let outcome p = (Wish_emu.State.outcome (Wish_emu.Exec.run p)).Wish_emu.State.memory_checksum

let test_catalog () =
  check Alcotest.int "nine benchmarks" 9 (List.length all);
  check
    Alcotest.(list string)
    "paper's Table 4 subset"
    [ "gzip"; "vpr"; "mcf"; "crafty"; "parser"; "gap"; "vortex"; "bzip2"; "twolf" ]
    (List.map (fun (b : Bench.t) -> b.name) all);
  List.iter
    (fun (b : Bench.t) ->
      check Alcotest.int (b.name ^ " has three inputs") 3 (List.length b.inputs);
      Alcotest.(check bool)
        (b.name ^ " profiles on a real input")
        true
        (List.exists (fun (i : Bench.input) -> i.label = b.profile_input) b.inputs))
    all

let test_find () =
  let b = Workloads.find ~scale "mcf" in
  check Alcotest.string "found" "mcf" b.name;
  Alcotest.check_raises "unknown"
    (Invalid_argument
       "unknown workload nope (know: gzip, vpr, mcf, crafty, parser, gap, vortex, bzip2, twolf)")
    (fun () -> ignore (Workloads.find ~scale "nope"))

(* The big architectural sweep: 9 benchmarks x 3 inputs x 5 binaries. *)
let test_equivalence ((b : Bench.t), bins) () =
  List.iter
    (fun (input : Bench.input) ->
      let reference = outcome (Bench.program_for b bins.Wish_compiler.Compiler.normal input.label) in
      List.iter
        (fun kind ->
          let p = Bench.program_for b (Wish_compiler.Compiler.binary bins kind) input.label in
          check Alcotest.int
            (Printf.sprintf "%s/%s/%s" b.name (Wish_compiler.Policy.kind_name kind) input.label)
            reference (outcome p))
        Wish_compiler.Compiler.all_kinds)
    b.inputs

let test_wish_binaries_have_wish_branches () =
  List.iter
    (fun ((b : Bench.t), bins) ->
      let wish_code = Wish_isa.Program.code bins.Wish_compiler.Compiler.wish_jjl in
      Alcotest.(check bool)
        (b.name ^ " wish-jjl has wish branches")
        true
        (Wish_isa.Code.static_wish_branches wish_code > 0);
      Alcotest.(check bool)
        (b.name ^ " normal has none")
        true
        (Wish_isa.Code.static_wish_branches (Wish_isa.Program.code bins.normal) = 0))
    (Lazy.force compiled)

(* Behavioural bands: the qualitative branch profile each benchmark was
   designed for (normal binary, input A). Simulation-based, so a handful
   of benchmarks only. *)
let misp_per_kuop name =
  let b = Workloads.find ~scale name in
  let bins = compile b in
  let p = Bench.program_for b bins.normal "A" in
  let s = Wish_sim.Runner.simulate p in
  1000.0 *. float_of_int s.mispredicts /. float_of_int s.retired_uops

let test_predictability_bands () =
  let easy = misp_per_kuop "vortex" and hard = misp_per_kuop "bzip2" in
  Alcotest.(check bool) "vortex predictable (paper: 0.8/1K)" true (easy < 8.0);
  Alcotest.(check bool) "bzip2 hard (paper: 8.6/1K)" true (hard > 10.0);
  Alcotest.(check bool) "ordering" true (easy < hard)

let test_mcf_predication_pathology () =
  (* The headline mcf behaviour (Figure 10): aggressive predication is far
     slower than branches; wish hardware recovers. *)
  let b = Workloads.find ~scale "mcf" in
  let bins = compile b in
  let run bin = (Wish_sim.Runner.simulate (Bench.program_for b bin "A")).Wish_sim.Runner.cycles in
  let normal = run bins.normal and base_max = run bins.base_max and wish = run bins.wish_jj in
  Alcotest.(check bool) "BASE-MAX much slower" true
    (float_of_int base_max > 1.5 *. float_of_int normal);
  Alcotest.(check bool) "wish rescues" true (float_of_int wish < 1.2 *. float_of_int normal)

let test_input_changes_behaviour () =
  (* gzip input A (incompressible) must mispredict more than input B. *)
  let b = Workloads.find ~scale "gzip" in
  let bins = compile b in
  let misp label =
    let s = Wish_sim.Runner.simulate (Bench.program_for b bins.normal label) in
    1000.0 *. float_of_int s.mispredicts /. float_of_int s.retired_uops
  in
  Alcotest.(check bool) "A harder than B" true (misp "A" > misp "B")

let test_retirement_matches_trace () =
  (* Oracle-consistency invariant: each correct-path µop the simulator
     retires consumes exactly one trace entry. Binaries without wish
     branches can never skip entries, so retirement equals the trace
     length; wish binaries retire at most that many (high-confidence taken
     wish jumps legitimately skip the predicated region's entries). *)
  List.iter
    (fun name ->
      let b = Workloads.find ~scale name in
      let bins = compile b in
      List.iter
        (fun kind ->
          let p = Bench.program_for b (Wish_compiler.Compiler.binary bins kind) "A" in
          let s = Wish_sim.Runner.simulate p in
          let label k = Printf.sprintf "%s/%s %s" name (Wish_compiler.Policy.kind_name kind) k in
          match kind with
          | Wish_compiler.Policy.Normal | Wish_compiler.Policy.Base_def
          | Wish_compiler.Policy.Base_max ->
            check Alcotest.int (label "retired = trace") s.dynamic_insts s.retired_uops
          | Wish_compiler.Policy.Wish_jj | Wish_compiler.Policy.Wish_jjl ->
            Alcotest.(check bool) (label "retired <= trace") true
              (s.retired_uops <= s.dynamic_insts);
            Alcotest.(check bool)
              (label "retired within skip bound") true
              (s.retired_uops > s.dynamic_insts / 2))
        Wish_compiler.Compiler.all_kinds)
    [ "gzip"; "vortex" ]

(* Input identity: every input's memory image, folded as (address, value)
   words in segment order, against digests taken from the original
   pair-list builders. Guards each builder's RNG draw order. *)
let image_digest (data : Wish_isa.Program.segment list) =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (base, words) ->
      Array.iteri
        (fun k v ->
          Buffer.add_int64_le buf (Int64.of_int (base + k));
          Buffer.add_int64_le buf (Int64.of_int v))
        words)
    data;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let input_digests =
  [
    ("gzip", 1, "A", "e1fb17628352a845870774587a663814");
    ("gzip", 1, "B", "182581056841e6fc69e7d805f0963e47");
    ("gzip", 1, "C", "5cf00542408bdc50edf667edfd2b8233");
    ("vpr", 1, "A", "db6d3384eb5b83eb0682e1a34bdfb995");
    ("vpr", 1, "B", "e8e46446ac5c497c132bbd7dbfe360a7");
    ("vpr", 1, "C", "474f7ee7699bcf7bd65373cdf2dab2ef");
    ("mcf", 1, "A", "51983e3c7a7579b000d0840a96dc8a0e");
    ("mcf", 1, "B", "97e83891850d57cce5ac90d42cf34f3c");
    ("mcf", 1, "C", "f9275aaaccf39946e5173f3cc4736be6");
    ("crafty", 1, "A", "53a6a1d6f390c1cf9fe2780b215c4db3");
    ("crafty", 1, "B", "90b1088bbc82d67a0224cde2abd62f88");
    ("crafty", 1, "C", "7048a7e87f2db0d24b6fc8f586cea7fe");
    ("parser", 1, "A", "05dbb245f8051c4cf0464891483b9398");
    ("parser", 1, "B", "2ecfb397ff80c39c4adbb09687041d2f");
    ("parser", 1, "C", "e02a746e63cce6da31b4084e547f9825");
    ("gap", 1, "A", "8584d70efcf974772d23263f5897ea45");
    ("gap", 1, "B", "65dff9f9ec3656302c0e00b17d2eaac5");
    ("gap", 1, "C", "49cae75d2adf183abab6de723e3b1af3");
    ("vortex", 1, "A", "eb316fcef8d571330706e4e57393353b");
    ("vortex", 1, "B", "10f3d73f3ad211cee019e6dd74564d2b");
    ("vortex", 1, "C", "eecf0d3eabe8b566dea01b0b7251ed51");
    ("bzip2", 1, "A", "67a739f8c4572780eb9078fb868b6c34");
    ("bzip2", 1, "B", "45c7cd7feadc683c0fe4aed24a59f569");
    ("bzip2", 1, "C", "b64257507d393f7634f64a06ac1880d1");
    ("twolf", 1, "A", "d21fb692e4f1e25d347110293d0a6f80");
    ("twolf", 1, "B", "4761861fa5e559bd2f5cd2f6a15e1c00");
    ("twolf", 1, "C", "13d50e457e2e21df915d5178eb3238ed");
    ("gzip", 100, "A", "e1fb17628352a845870774587a663814");
    ("gzip", 100, "B", "182581056841e6fc69e7d805f0963e47");
    ("gzip", 100, "C", "5cf00542408bdc50edf667edfd2b8233");
    ("mcf", 100, "A", "51983e3c7a7579b000d0840a96dc8a0e");
    ("mcf", 100, "B", "97e83891850d57cce5ac90d42cf34f3c");
    ("mcf", 100, "C", "f9275aaaccf39946e5173f3cc4736be6");
  ]

let test_input_identity () =
  List.iter
    (fun (name, scale, label, digest) ->
      let b = Workloads.find ~scale name in
      check Alcotest.string
        (Printf.sprintf "%s x%d input %s" name scale label)
        digest
        (image_digest (Bench.input b label).data))
    input_digests;
  check Alcotest.int "every scale-1 input pinned"
    (List.length all * 3)
    (List.length (List.filter (fun (_, s, _, _) -> s = 1) input_digests))

let test_scale_parameter () =
  let small = Workloads.find ~scale:1 "gap" and big = Workloads.find ~scale:2 "gap" in
  let insts (b : Bench.t) =
    let bins = compile b in
    (Wish_emu.Exec.run (Bench.program_for b bins.normal "A")).Wish_emu.State.retired
  in
  Alcotest.(check bool) "scale grows the run" true (insts big > insts small * 3 / 2)

let () =
  let equivalence_cases =
    List.map
      (fun ((b : Bench.t), bins) ->
        Alcotest.test_case (b.name ^ " five binaries equivalent on all inputs") `Slow
          (test_equivalence (b, bins)))
      (Lazy.force compiled)
  in
  Alcotest.run "wish_workloads"
    [
      ( "catalog",
        [
          Alcotest.test_case "nine benchmarks" `Quick test_catalog;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "wish branches present" `Quick test_wish_binaries_have_wish_branches;
          Alcotest.test_case "input identity" `Quick test_input_identity;
        ] );
      ("equivalence", equivalence_cases);
      ( "behaviour",
        [
          Alcotest.test_case "predictability bands" `Slow test_predictability_bands;
          Alcotest.test_case "mcf pathology" `Slow test_mcf_predication_pathology;
          Alcotest.test_case "input sensitivity" `Slow test_input_changes_behaviour;
          Alcotest.test_case "retirement matches trace" `Slow test_retirement_matches_trace;
          Alcotest.test_case "scale parameter" `Slow test_scale_parameter;
        ] );
    ]
