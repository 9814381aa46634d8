(* Command-line smoke: runs the built [wishsim] and [experiments] binaries
   the way a user does and checks what they print and how they exit:

   - an exact [wishsim] run prints the headline lines and the streaming
     line, and a [--sample auto] run prints its sampled line;
   - a [.wisc] whose [.data] lies outside data memory exits 2 with a
     [file:line] diagnostic;
   - each retired backend flag is rejected as an unknown option.

   Usage: cli_smoke.exe WISHSIM EXPERIMENTS BAD_DATA_WISC. Wired into
   [dune runtest] via the @cli-smoke alias. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL cli-smoke: " ^ m); exit 1) fmt

(* [run exe args] — exit code, then stdout followed by stderr. *)
let run exe args =
  let out = Filename.temp_file "cli_smoke" ".out" and err = Filename.temp_file "cli_smoke" ".err" in
  let code = Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err) in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let text = read out ^ read err in
  Sys.remove out;
  Sys.remove err;
  (code, text)

let contains text sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
  go 0

let expect what (code, text) ~exit ~lines =
  if code <> exit then fail "%s: exit %d, expected %d\n%s" what code exit text;
  List.iter (fun l -> if not (contains text l) then fail "%s: no %S in\n%s" what l text) lines

let () =
  let wishsim = Sys.argv.(1) and experiments = Sys.argv.(2) and bad_data = Sys.argv.(3) in
  let t0 = Unix.gettimeofday () in
  expect "wishsim -b gzip -k normal"
    (run wishsim [ "-b"; "gzip"; "-k"; "normal" ])
    ~exit:0
    ~lines:
      [
        "workload      gzip (input A, scale 1)";
        "binary        normal";
        "dynamic insts ";
        "retired uops  ";
        "cycles        ";
        "uPC           ";
        "branches      ";
        "caches        ";
        "streaming     peak ";
      ];
  expect "wishsim --sample auto" (run wishsim [ "--sample"; "auto" ]) ~exit:0
    ~lines:[ "uPC           "; "sampled       spec " ];
  expect "wishsim --asm (out-of-range .data)"
    (run wishsim [ "--asm"; bad_data ])
    ~exit:2
    ~lines:[ bad_data ^ ":4: .data address 70 outside data memory [0, 64)" ];
  List.iter
    (fun (exe, flag) ->
      expect
        (Filename.basename exe ^ " " ^ flag)
        (run exe [ flag ]) ~exit:124
        ~lines:[ Printf.sprintf "unknown option '%s'" flag ])
    [
      (wishsim, "--emu-interp");
      (wishsim, "--sim-interp");
      (wishsim, "--warm-trace");
      (wishsim, "--stream");
      (experiments, "--emu-interp");
      (experiments, "--warm-trace");
    ];
  Printf.printf "cli-smoke: OK (%.2fs)\n" (Unix.gettimeofday () -. t0)
