(* The tiny hammock kernel shared by the hot-path harnesses: hotloop.exe
   (which owns BENCH_hotloop.json) and perfgate.exe (which re-times the
   same cases against that baseline). One definition keeps the two
   measuring the same work. *)

let tiny_hammock ~wish =
  let open Wish_isa in
  let hb ~guard l = if wish then Asm.wish_jump ~guard l else Asm.br ~guard l in
  let items =
    Asm.[
      movi 3 0;
      movi 4 0;
      label "loop";
      alu Inst.And 6 3 (Inst.Imm 255);
      load 7 6 64;
      cmp Inst.Eq ~dst_false:2 1 7 (Inst.Imm 1);
      hb ~guard:1 "then_";
      alu ~guard:2 Inst.Add 4 4 (Inst.Reg 7);
      alu ~guard:2 Inst.Xor 4 4 (Inst.Imm 3);
      (if wish then Asm.wish_join ~guard:2 "join" else Asm.jmp "join");
      label "then_";
      alu ~guard:1 Inst.Sub 4 4 (Inst.Imm 7);
      alu ~guard:1 Inst.Xor 4 4 (Inst.Imm 11);
      label "join";
      alu Inst.Add 3 3 (Inst.Imm 1);
      cmp Inst.Lt 1 3 (Inst.Imm 64);
      br ~guard:1 "loop";
      halt;
    ]
  in
  let rng = Wish_util.Rng.create 5 in
  let data = [ (64, Array.init 256 (fun _ -> Wish_util.Rng.int rng 2)) ] in
  Wish_isa.Program.create ~mem_words:4096 ~data (Wish_isa.Asm.assemble items)

(* The BENCH_hotloop.json case list: name, machine configuration, and
   whether the kernel uses wish branches. *)
let cases =
  [
    ("fig10", Wish_sim.Config.default, true);
    ("fig14", Wish_sim.Config.with_rob Wish_sim.Config.default 128, true);
    ("fig1", Wish_sim.Config.default, false);
  ]
