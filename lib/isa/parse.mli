(** Textual WISC assembly.

    The accepted syntax is exactly what {!Inst.pp} prints — so listings
    round-trip — plus labels ([name:]), [;] comments, [@N] numeric branch
    targets (as listings print), and the directives [.mem WORDS] and
    [.data ADDR VALUE]. See [examples/sad.wisc]. *)

exception Parse_error of { line : int; message : string }

(** [program_of_string ?name text] parses a full assembly file. Raises
    {!Parse_error} with a line number on malformed input (including a
    [.data] address outside the file's [.mem] size, wherever the [.mem]
    line is), and the assembler/code-image exceptions on unresolved
    labels or invalid images. *)
val program_of_string : ?name:string -> string -> Program.t

(** [program_of_file path] reads and parses an assembly file. *)
val program_of_file : string -> Program.t

(** [listing_of_code code] prints a listing that {!program_of_string}
    accepts (numeric [@N] targets, one instruction per line). *)
val listing_of_code : Code.t -> string

(** [listing_of_program p] — [.mem]/[.data] directives plus the code
    listing: the lossless textual form of a whole program, accepted by
    {!program_of_string} (fuzzer repros are saved in this shape). Raises
    [Invalid_argument] if [p.entry] is nonzero — the textual syntax has
    no entry directive. *)
val listing_of_program : Program.t -> string
