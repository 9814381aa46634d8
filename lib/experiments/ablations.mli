(** Ablation studies for the design choices DESIGN.md calls out. These go
    beyond the paper's own evaluation: they isolate the contribution of
    individual mechanisms in this implementation. *)

(** A1: wish-jjl with/without the specialized wish-loop predictor. *)
val loop_predictor : Lab.t -> Wish_util.Table.t

(** A2: JRS confidence threshold sweep on the wish-jjl binary. *)
val confidence_threshold : Lab.t -> Wish_util.Table.t

(** A3: the wish-jjl binary on hardware that ignores the hint bits
    (paper Section 3.4 forward compatibility). *)
val no_wish_hardware : Lab.t -> Wish_util.Table.t

(** A4: compiler wish-jump threshold N sweep. Recompiles wish-jj for
    gzip, twolf and gap at N ∈ {0, 5, 100} as Lab compile variants
    ({!Lab.job} [~wish_n]) and resolves all of them, with their normal
    baselines, in one {!Lab.run_batch}: a warm cache serves every cell. *)
val wish_threshold_n : Lab.t -> Wish_util.Table.t

(** [jobs_for name lab] — the prewarmable simulation grid behind study
    [name] (empty for unknown names); see {!Figures.jobs_for}. For
    [abl-wish-n] it is the three normal baselines only: perfbench pins
    the summaries behind these grids and their instruction total apart
    from A4's variants, which {!wish_threshold_n} resolves itself. *)
val jobs_for : string -> Lab.t -> Lab.job list

(** All studies by id: abl-loop-pred, abl-conf-threshold, abl-no-wish-hw,
    abl-wish-n. *)
val all : (string * (Lab.t -> Wish_util.Table.t)) list

val find : string -> (Lab.t -> Wish_util.Table.t) option
