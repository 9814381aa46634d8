(* Lease smoke: concurrent runs that share one cache directory compute
   each summary once, through the cache's single-flight lease alone (no
   daemon, no socket).

   Shared phase: N client processes are forked before this process
   creates any domain. Client i builds its own cached Lab on one shared
   directory and regenerates fig10 over three of four benchmarks
   (rotating), as `experiments fig10 -b X -b Y -b Z` would: eight
   clients request 6x the distinct work. Required: summed over all
   clients, the summaries simulated equal the distinct programs
   requested (distinct content keys: jobs whose binaries are byte
   identical share one run), and each client's jobs are exactly its
   simulated summaries, cache hits, lease waits and shared runs.

   Kill phase: a holder process (its first simulation armed to stall via
   [lab.slow]) is SIGKILLed while a second process waits on its lease.
   Required: the waiter finishes promptly with a byte-identical table,
   and no lease file is left behind.

   Baseline: N sequential cold Labs, one fresh cache each, with the
   clients' default pool size. Every client table, and the waiter's,
   must be byte-identical to its baseline twin. With 8 or more clients
   the aggregate speedup (baseline wall / shared wall) must reach 4x.

   Usage: lease_smoke.exe [--clients N] [--scale S]  (default 4 and 1,
   the @lease-smoke configuration; the acceptance run is
   --clients 8 --scale 3). *)

module FP = Wish_util.Faultpoint
module Table = Wish_util.Table
module Lab = Wish_experiments.Lab
module Cache = Wish_experiments.Cache
module Figures = Wish_experiments.Figures

let root =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "wishlease_smoke_%d" (Unix.getpid ()))

let rec rm_rf d =
  if Sys.file_exists d then
    if Sys.is_directory d then begin
      Array.iter (fun f -> rm_rf (Filename.concat d f)) (Sys.readdir d);
      try Sys.rmdir d with Sys_error _ -> ()
    end
    else try Sys.remove d with Sys_error _ -> ()

let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "FAIL: %s\n%!" s; exit 1) fmt

let arg name default =
  let rec go = function
    | k :: v :: _ when k = name -> (
      match int_of_string_opt v with Some n when n > 0 -> n | _ -> fail "%s %s" name v)
    | _ :: rest -> go rest
    | [] -> default
  in
  go (List.tl (Array.to_list Sys.argv))

let clients = arg "--clients" 4
let scale = arg "--scale" 1
let benches = [| "gzip"; "mcf"; "twolf"; "vpr" |]

let matrix_of i =
  let n = Array.length benches in
  [ benches.(i mod n); benches.((i + 1) mod n); benches.((i + 2) mod n) ]

let prefixed p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Fork [f], which must not return; its exit status is what counts. *)
let spawn f =
  match Unix.fork () with
  | 0 ->
    ignore (Unix.alarm 600);
    (try f () with e -> Printf.eprintf "child: %s\n%!" (Printexc.to_string e));
    Unix._exit 3
  | pid -> pid

let expect_exit what pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> fail "%s exited %d" what n
  | _, Unix.WSIGNALED n -> fail "%s killed by signal %d" what n
  | _, Unix.WSTOPPED _ -> fail "%s stopped" what

(* A cached fig10 run of matrix [i] on [dir], the way `experiments` runs
   it: prewarm the batch, then render. [log] sees every [Lab] line. *)
let cached_fig10 ~dir ~log i =
  let lab =
    Lab.create ~scale ~names:(matrix_of i)
      ~jobs:(Wish_util.Pool.default_size ())
      ~cache:(Cache.create ~dir ()) ()
  in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
  Lab.set_logger lab log;
  Lab.prewarm lab (Figures.jobs_for "fig10" lab);
  let table = Table.render (Figures.fig10 lab) in
  (table, Lab.batch_stats lab)

(* Client i writes "<simulated> <cache hits> <lease waits> <shared>\n"
   and its table. *)
let client_main ~dir i out () =
  let simulated = ref 0 in
  let table, st =
    cached_fig10 ~dir i ~log:(fun s -> if prefixed "simulating" s then incr simulated)
  in
  write_file out
    (Printf.sprintf "%d %d %d %d\n%s" !simulated st.Lab.cache_hits st.Lab.lease_waited
       st.Lab.shared table);
  Unix._exit 0

(* The distinct summaries matrix [i]'s fig10 resolves, and the distinct
   programs (content keys) behind them. *)
let job_keys i =
  let lab = Lab.create ~scale ~names:(matrix_of i) () in
  let jobs = Lab.with_baselines (Figures.jobs_for "fig10" lab) in
  ( List.sort_uniq compare (List.map (Lab.summary_key_of_job lab) jobs),
    List.sort_uniq compare (List.map (Lab.content_key_of_job lab) jobs) )

let lease_files dir =
  let sdir = Filename.concat dir "summary" in
  if Sys.file_exists sdir then
    List.filter (fun f -> Filename.check_suffix f ".lease") (Array.to_list (Sys.readdir sdir))
  else []

let poll ~what ~deadline cond =
  let t_end = Unix.gettimeofday () +. deadline in
  while not (cond ()) do
    if Unix.gettimeofday () > t_end then fail "timed out waiting for %s" what;
    Unix.sleepf 0.02
  done

(* --- shared phase --- *)
let shared_phase () =
  let dir = Filename.concat root "shared" in
  let outs = Array.init clients (fun i -> Filename.concat root (Printf.sprintf "c%d.out" i)) in
  let t0 = Unix.gettimeofday () in
  let pids = Array.init clients (fun i -> spawn (client_main ~dir i outs.(i))) in
  Array.iteri (fun i pid -> expect_exit (Printf.sprintf "client %d" i) pid) pids;
  let wall = Unix.gettimeofday () -. t0 in
  let keys = Array.init clients job_keys in
  let simulated = ref 0 and hits = ref 0 and waited = ref 0 and shared = ref 0 in
  let tables =
    Array.mapi
      (fun i out ->
        let s = read_file out in
        let nl = String.index s '\n' in
        let sim, hit, wait, share =
          Scanf.sscanf (String.sub s 0 nl) "%d %d %d %d" (fun a b c d -> (a, b, c, d))
        in
        let jobs = List.length (fst keys.(i)) in
        if sim + hit + wait + share <> jobs then
          fail "client %d: %d simulated + %d cache hits + %d lease waits + %d shared <> its %d jobs"
            i sim hit wait share jobs;
        simulated := !simulated + sim;
        hits := !hits + hit;
        waited := !waited + wait;
        shared := !shared + share;
        String.sub s (nl + 1) (String.length s - nl - 1))
      outs
  in
  let distinct f = List.length (List.sort_uniq compare (List.concat_map f (Array.to_list keys))) in
  let programs = distinct snd in
  let rows = !simulated + !hits + !waited + !shared in
  if !simulated <> programs then
    fail "%d summaries simulated for %d distinct programs: work got through twice" !simulated
      programs;
  if lease_files dir <> [] then fail "lease files left in the shared cache";
  Printf.printf
    "lease_smoke: %d clients, scale %d: %d job rows for %d distinct jobs, %d simulated (= \
     distinct programs), %d cache hits, %d found after a lease wait, %d shared with an \
     identical run; shared wall %.2fs\n%!"
    clients scale rows (distinct fst) !simulated !hits !waited !shared wall;
  (tables, wall)

(* --- kill phase: a stalled holder is SIGKILLed under a waiter --- *)
let kill_phase () =
  let dir = Filename.concat root "kill" in
  let waiter_log = Filename.concat root "waiter.log" in
  let waiter_out = Filename.concat root "waiter.out" in
  let holder =
    spawn (fun () ->
        FP.arm "lab.slow" ~times:1 ~delay:600.0;
        ignore (cached_fig10 ~dir ~log:ignore 0);
        Unix._exit 0)
  in
  poll ~what:"the holder's lease" ~deadline:120.0 (fun () -> lease_files dir <> []);
  let waiter =
    spawn (fun () ->
        let oc = open_out waiter_log in
        let table, _ =
          cached_fig10 ~dir 0 ~log:(fun s ->
              output_string oc (s ^ "\n");
              flush oc)
        in
        close_out oc;
        write_file waiter_out table;
        Unix._exit 0)
  in
  poll ~what:"the waiter to block on the lease" ~deadline:120.0 (fun () ->
      Sys.file_exists waiter_log
      && List.exists (prefixed "waiting: ") (String.split_on_char '\n' (read_file waiter_log)));
  let t0 = Unix.gettimeofday () in
  Unix.kill holder Sys.sigkill;
  (match Unix.waitpid [] holder with
  | _, Unix.WSIGNALED n when n = Sys.sigkill -> ()
  | _ -> fail "the holder did not die by SIGKILL");
  expect_exit "waiter" waiter;
  let dt = Unix.gettimeofday () -. t0 in
  if lease_files dir <> [] then fail "a lease file survived its killed holder";
  Printf.printf "lease_smoke: holder SIGKILLed mid-job; the waiter finished %.2fs later\n%!" dt;
  read_file waiter_out

(* --- baseline: sequential cold Labs, fresh caches --- *)
let cold_run i =
  let dir = Filename.concat root (Printf.sprintf "cold%d" i) in
  let lab =
    Lab.create ~scale ~names:(matrix_of i)
      ~jobs:(Wish_util.Pool.default_size ())
      ~cache:(Cache.create ~dir ()) ()
  in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
  Table.render (Figures.fig10 lab)

let () =
  ignore (Unix.alarm 900);
  rm_rf root;
  Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  (* Both forking phases come first: OCaml 5 cannot fork once a domain
     exists, and the baseline's Labs may spawn some. *)
  let tables, wall_shared = shared_phase () in
  let waiter_table = kill_phase () in
  let t0 = Unix.gettimeofday () in
  let cold = Array.init clients cold_run in
  let wall_cold = Unix.gettimeofday () -. t0 in
  Array.iteri
    (fun i t ->
      if not (String.equal t cold.(i)) then
        fail "client %d table differs from its cold serial run:\n%s\n--- vs ---\n%s" i t cold.(i))
    tables;
  if not (String.equal waiter_table cold.(0)) then
    fail "the waiter's table differs from its cold serial run";
  let speedup = wall_cold /. wall_shared in
  Printf.printf "lease_smoke: %d sequential cold runs %.2fs; aggregate speedup %.1fx\n%!"
    clients wall_cold speedup;
  if clients >= 8 && speedup < 4.0 then
    fail "aggregate speedup %.1fx is below the 4x acceptance floor" speedup;
  print_endline "lease_smoke OK: byte-identical tables, each summary simulated once"
