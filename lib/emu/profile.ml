(** ISA-level dynamic profiling: per-branch execution/taken counts and
    instruction mix, computed from an architectural-mode run. Feeds the
    Table 4-style benchmark characterization. *)

open Wish_isa

type branch_stats = { mutable executed : int; mutable taken : int }

type t = {
  branches : (int, branch_stats) Hashtbl.t; (* pc -> stats, conditional only *)
  mutable dynamic_insts : int;
  mutable dynamic_cond_branches : int;
  mutable dynamic_wish_branches : int;
  mutable dynamic_wish_loops : int;
  mutable guard_false_insts : int;
  mutable loads : int;
  mutable stores : int;
}

let create () =
  {
    branches = Hashtbl.create 256;
    dynamic_insts = 0;
    dynamic_cond_branches = 0;
    dynamic_wish_branches = 0;
    dynamic_wish_loops = 0;
    guard_false_insts = 0;
    loads = 0;
    stores = 0;
  }

let branch_cell t pc =
  match Hashtbl.find_opt t.branches pc with
  | Some c -> c
  | None ->
    let c = { executed = 0; taken = 0 } in
    Hashtbl.add t.branches pc c;
    c

let record t code (o : Exec.out) =
  t.dynamic_insts <- t.dynamic_insts + 1;
  let guard_true = o.Exec.o_guard_true in
  if not guard_true then t.guard_false_insts <- t.guard_false_insts + 1;
  let i = Code.get code o.Exec.o_pc in
  (match i.op with
  | Inst.Load _ -> if guard_true then t.loads <- t.loads + 1
  | Inst.Store _ -> if guard_true then t.stores <- t.stores + 1
  | Inst.Branch { kind; _ } ->
    t.dynamic_cond_branches <- t.dynamic_cond_branches + 1;
    (match kind with
    | Inst.Cond -> ()
    | Inst.Wish_jump | Inst.Wish_join | Inst.Wish_loop ->
      t.dynamic_wish_branches <- t.dynamic_wish_branches + 1;
      if kind = Inst.Wish_loop then t.dynamic_wish_loops <- t.dynamic_wish_loops + 1);
    let c = branch_cell t o.Exec.o_pc in
    c.executed <- c.executed + 1;
    (* The architectural direction of a guarded branch is its guard. *)
    if guard_true then c.taken <- c.taken + 1
  | Inst.Alu _ | Inst.Cmp _ | Inst.Pset _ | Inst.Jump _ | Inst.Call _ | Inst.Return
  | Inst.Halt | Inst.Nop ->
    ())

(* Per-pc classification for the profiling sink: replaces the per-step
   [Code.get] + variant match of {!record} with one precomputed int. *)
let k_other = 0
and k_load = 1
and k_store = 2
and k_cond = 3
and k_wish = 4
and k_wish_loop = 5

let kind_table code =
  Array.init (Code.length code) (fun pc ->
      match (Code.get code pc).Inst.op with
      | Inst.Load _ -> k_load
      | Inst.Store _ -> k_store
      | Inst.Branch { kind = Inst.Cond; _ } -> k_cond
      | Inst.Branch { kind = Inst.Wish_jump | Inst.Wish_join; _ } -> k_wish
      | Inst.Branch { kind = Inst.Wish_loop; _ } -> k_wish_loop
      | Inst.Alu _ | Inst.Cmp _ | Inst.Pset _ | Inst.Jump _ | Inst.Call _ | Inst.Return
      | Inst.Halt | Inst.Nop ->
        k_other)

(** [of_program program] profiles a full architectural run through the
    compiled emulator. Its reference is {!record} folded over
    {!Exec.step_into}; the "profile" tests in [test/test_emu.ml] diff
    the two. *)
let of_program ?(fuel = 200_000_000) program =
  let st = State.create program in
  let code = Program.code program in
  let t = create () in
  let kind = kind_table code in
  (* Same lazy-creation discipline as [branch_cell]: only branches that
     actually execute appear in the table. The array just caches the
     Hashtbl lookup per static pc. *)
  let cells = Array.make (max 1 (Code.length code)) None in
  let sink (o : Exec.out) =
    t.dynamic_insts <- t.dynamic_insts + 1;
    let guard_true = o.Exec.o_guard_true in
    if not guard_true then t.guard_false_insts <- t.guard_false_insts + 1;
    let pc = o.Exec.o_pc in
    let k = Array.unsafe_get kind pc in
    if k <> k_other then
      if k = k_load then (if guard_true then t.loads <- t.loads + 1)
      else if k = k_store then (if guard_true then t.stores <- t.stores + 1)
      else begin
        t.dynamic_cond_branches <- t.dynamic_cond_branches + 1;
        if k >= k_wish then begin
          t.dynamic_wish_branches <- t.dynamic_wish_branches + 1;
          if k = k_wish_loop then t.dynamic_wish_loops <- t.dynamic_wish_loops + 1
        end;
        let c =
          match Array.unsafe_get cells pc with
          | Some c -> c
          | None ->
            let c = branch_cell t pc in
            Array.unsafe_set cells pc (Some c);
            c
        in
        c.executed <- c.executed + 1;
        if guard_true then c.taken <- c.taken + 1
      end
  in
  Compiled.run_to_halt (Compiled.compile ~mode:Exec.Architectural code) st (Exec.make_out ()) ~sink ~fuel;
  (t, st)

let taken_rate t pc =
  match Hashtbl.find_opt t.branches pc with
  | None -> 0.0
  | Some c -> if c.executed = 0 then 0.0 else float_of_int c.taken /. float_of_int c.executed

let static_branch_count t = Hashtbl.length t.branches
