(** A runnable program: a code image plus its initial data memory and
    metadata. This is the unit the emulator executes and the simulator
    models. *)

(** [(base, words)]: [words.(k)] is the initial value of word address
    [base + k]. A program never mutates its segments; the emulator copies
    them into a fresh memory, so one input can feed any number of runs. *)
type segment = int * int array

type t = {
  name : string;
  code : Code.t;
  entry : int;  (** starting pc *)
  data : segment list;
      (** initial memory, applied in list order: where segments overlap,
          the later one wins *)
  mem_words : int;  (** size of the data memory in words *)
}

val default_mem_words : int

(** [create ?name ?entry ?data ?mem_words code] validates the entry and
    that every segment lies inside [0, mem_words) — one range check per
    segment, whatever its length. *)
val create :
  ?name:string -> ?entry:int -> ?data:segment list -> ?mem_words:int -> Code.t -> t

val code : t -> Code.t
val name : t -> string

(** [with_data t data] rebinds the initial data memory — the same binary
    run with a different input set. Validates segments as {!create}. *)
val with_data : t -> segment list -> t

val with_name : t -> string -> t
val pp : Format.formatter -> t -> unit
