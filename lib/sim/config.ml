(** Machine configuration, defaulting to the paper's baseline (Table 2):
    8-wide fetch/decode/rename and execute/retire, 512-entry reorder buffer,
    64K-entry gshare/PAs hybrid with a 64K-entry selector, 4K-entry BTB,
    64-entry RAS, 30-cycle minimum branch misprediction penalty, 1KB tagged
    JRS confidence estimator, and the Table 2 memory hierarchy. *)

type predication_mechanism =
  | C_style (* predicated µop reads guard + old destination [Sprangle & Patt] *)
  | Select_uop (* computation µop + select µop [Wang et al.] *)

(** Oracle idealization knobs used by Figure 2 and the perf-conf bars. *)
type knobs = {
  perfect_bp : bool; (* PERFECT-CBP: all branch predictions from the oracle *)
  perfect_conf : bool; (* confidence = (prediction correct?) from the oracle *)
  no_depend : bool; (* NO-DEPEND: predicate data dependencies removed *)
  no_fetch : bool; (* NO-FETCH: false-predicated µops dropped at fetch *)
}

let no_knobs = { perfect_bp = false; perfect_conf = false; no_depend = false; no_fetch = false }

type t = {
  fetch_width : int; (* µops fetched per cycle *)
  rename_width : int;
  issue_width : int;
  retire_width : int;
  rob_size : int;
  frontend_depth : int; (* fetch-to-rename cycles; sets the flush penalty *)
  btb_miss_penalty : int; (* bubble when a taken branch misses the BTB *)
  max_cond_branches : int; (* conditional branches fetched per cycle *)
  bpred : Wish_bpred.Hybrid.config;
  btb_entries : int;
  btb_ways : int;
  ras_entries : int;
  conf : Wish_bpred.Confidence.config;
  use_loop_predictor : bool;
  (* The specialized, overestimate-biased wish-loop predictor the paper
     suggests in Section 3.2; applies to wish loops only. *)
  hier : Wish_mem.Hierarchy.config;
  mech : predication_mechanism;
  wish_hardware : bool; (* false: wish branches behave as normal branches *)
  knobs : knobs;
  max_cycles : int;
}

let default =
  {
    fetch_width = 8;
    rename_width = 8;
    issue_width = 8;
    retire_width = 8;
    rob_size = 512;
    frontend_depth = 28; (* 30-stage pipeline: ~30-cycle min misprediction penalty *)
    btb_miss_penalty = 3;
    max_cond_branches = 3;
    bpred = Wish_bpred.Hybrid.default_config;
    btb_entries = 4096;
    btb_ways = 4;
    ras_entries = 64;
    conf = Wish_bpred.Confidence.default_config;
    use_loop_predictor = true;
    hier = Wish_mem.Hierarchy.default_config;
    mech = C_style;
    wish_hardware = true;
    knobs = no_knobs;
    max_cycles = 2_000_000_000;
  }

(** [with_pipeline_stages t n] models an [n]-stage pipeline (Figure 15 uses
    10, 20 and 30): the front-end depth is the pipeline depth minus the two
    modelled back-end stages. *)
let with_pipeline_stages t n =
  assert (n >= 3);
  { t with frontend_depth = n - 2 }

let with_rob t n = { t with rob_size = n }

(* Every read of these fields that can change a result sits behind a
   wish-kind test (is_wish_hw, a wish_kind field, or a Wish_loop match)
   in Core, Compiled and the sampler; the flush-time loop-predictor
   squash only touches wish-loop entries, which such a program never
   creates. So a program with no wish branch cannot tell them apart. *)
let wish_free_canonical t =
  {
    t with
    conf = default.conf;
    use_loop_predictor = default.use_loop_predictor;
    wish_hardware = default.wish_hardware;
    knobs = { t.knobs with perfect_conf = default.knobs.perfect_conf };
  }

let pp_mech ppf = function
  | C_style -> Fmt.string ppf "c-style"
  | Select_uop -> Fmt.string ppf "select-uop"
