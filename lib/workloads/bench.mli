(** Benchmark container: a Kernel program plus its input sets.

    Each workload mimics the qualitative branch behaviour of one benchmark
    from the paper's SPEC INT 2000 subset (Table 4) — see each [W_*]
    module's header for the mapping rationale. Every workload ships three
    inputs (A, B, C, echoing Figure 1) whose data distributions change
    branch predictability and loop trip counts, and designates the input
    the compiler profiles on (the paper's compile-time training input). *)

type input = { label : string; data : Wish_isa.Program.segment list }

type t = {
  name : string;
  description : string;
  ast : Wish_compiler.Ast.program;
  inputs : input list;  (** conventionally A, B, C *)
  profile_input : string;  (** label of the training input *)
  mem_words : int;
  approx_dyn_insts : int;
      (** rough dynamic instruction count at this scale — a trace
          pre-sizing hint, exactness does not matter *)
}

(** [input t label] — raises [Invalid_argument] for unknown labels. *)
val input : t -> string -> input

val profile_data : t -> Wish_isa.Program.segment list

(** [program_for t binary input_label] binds an input set to a compiled
    binary of this workload. *)
val program_for : t -> Wish_isa.Program.t -> string -> Wish_isa.Program.t

(** [array_at base values] — the segment placing [values] at word
    address [base]. [values] is shared, not copied. *)
val array_at : int -> int array -> Wish_isa.Program.segment

(** [gen ~seed n f] builds [n] values from a fresh deterministic RNG,
    calling [f rng k] for [k = 0 .. n-1] in order. *)
val gen : seed:int -> int -> (Wish_util.Rng.t -> int -> int) -> int array
