(** Compiler driver: produce the five binaries of Table 3 for a Kernel
    program, using an emulator profile of the normal binary (run on a
    designated profiling input) to drive the BASE-DEF cost model — the
    moral equivalent of the paper's profile-guided ORC if-conversion. *)

type binaries = {
  source_name : string;
  normal : Wish_isa.Program.t;
  base_def : Wish_isa.Program.t;
  base_max : Wish_isa.Program.t;
  wish_jj : Wish_isa.Program.t;
  wish_jjl : Wish_isa.Program.t;
  profile : Policy.profile;
      (** the training-input profile the four profiled kinds were compiled
          with; recompiling a variant policy from it skips the profiling
          run *)
}

val binary : binaries -> Policy.kind -> Wish_isa.Program.t

(** All five kinds, in Table 3 order. *)
val all_kinds : Policy.kind list

(** [compile_kind ?mem_words ?profile ~name ast kind] compiles one
    flavour, returning the program and its branch map. *)
val compile_kind :
  ?mem_words:int ->
  ?profile:Policy.profile ->
  name:string ->
  Ast.program ->
  Policy.kind ->
  Wish_isa.Program.t * Codegen.branch_map

(** [profile_of_run program branch_map] runs the emulator and folds
    per-PC branch counts back onto AST construct ids. *)
val profile_of_run :
  ?fuel:int -> Wish_isa.Program.t -> Codegen.branch_map -> Policy.profile

(** [compile_all ?mem_words ?fuel ~name ~profile_data ast] builds all five
    binaries; [profile_data] is the training input (the compile-time
    profile). Bind evaluation inputs afterwards with
    {!Wish_isa.Program.with_data}. *)
val compile_all :
  ?mem_words:int ->
  ?fuel:int ->
  name:string ->
  profile_data:(int * int) list ->
  Ast.program ->
  binaries
