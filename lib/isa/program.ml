(** A runnable program: a code image plus its initial data memory and
    metadata. This is the unit the emulator executes and the simulator
    models. *)

type segment = int * int array

type t = {
  name : string;
  code : Code.t;
  entry : int; (* starting pc *)
  data : segment list; (* initial memory: (base word address, words), applied in order *)
  mem_words : int; (* size of the data memory in words *)
}

let default_mem_words = 1 lsl 21

(* A segment covers words [base, base + length); it must lie inside
   memory. Written so that a huge [base] cannot overflow the sum. *)
let segment_fits ~mem_words (base, words) =
  base >= 0 && base <= mem_words - Array.length words

let create ?(name = "anon") ?(entry = 0) ?(data = []) ?(mem_words = default_mem_words) code
    =
  if entry < 0 || entry >= Code.length code then invalid_arg "Program.create: bad entry";
  if not (List.for_all (segment_fits ~mem_words) data) then
    invalid_arg "Program.create: data out of range";
  { name; code; entry; data; mem_words }

let code t = t.code
let name t = t.name

(** [with_data t data] rebinds the initial data memory — the same binary
    run with a different input set. *)
let with_data t data =
  if not (List.for_all (segment_fits ~mem_words:t.mem_words) data) then
    invalid_arg "Program.with_data: out of range";
  { t with data }

let with_name t name = { t with name }

let pp ppf t =
  Fmt.pf ppf "program %s (entry=%d, %d insts)@.%a" t.name t.entry (Code.length t.code)
    Code.pp t.code
