(* Tests that drive the built rmtgpu executable: usage errors and the
   example commands documented in examples/kernels/*.rgk headers. *)

let check = Alcotest.check
let tc = Alcotest.test_case

(* The build tree next to this test executable: bin/rmtgpu.exe and the
   examples are its dependencies, so both sit under the same root. *)
let root = Filename.concat (Filename.dirname Sys.executable_name) ".."
let exe = Filename.concat root "bin/rmtgpu.exe"
let time_limit_s = 120.0

(* Run [sh -c cmd] in [root] with [rmtgpu] standing for the built
   executable. Returns [Some (status, stdout, stderr)], or [None] when
   the command is still running after [time_limit_s] (it is killed). *)
let run_shell cmd =
  let out = Filename.temp_file "rmtgpu_cli" ".out" in
  let err = Filename.temp_file "rmtgpu_cli" ".err" in
  let script =
    Printf.sprintf "cd %s && rmtgpu() { %s \"$@\"; }; %s"
      (Filename.quote root) (Filename.quote exe) cmd
  in
  let fd_out = Unix.openfile out [ O_WRONLY; O_TRUNC ] 0 in
  let fd_err = Unix.openfile err [ O_WRONLY; O_TRUNC ] 0 in
  let pid =
    Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; script |] Unix.stdin
      fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let deadline = Unix.gettimeofday () +. time_limit_s in
  let rec wait () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > deadline ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        None
    | 0, _ ->
        Unix.sleepf 0.02;
        wait ()
    | _, status -> Some status
  in
  let status = wait () in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let result =
    Option.map (fun status -> (status, read out, read err)) status
  in
  Sys.remove out;
  Sys.remove err;
  result

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_inject_count_usage_error () =
  List.iter
    (fun n ->
      match run_shell ("rmtgpu inject PS intra+lds lds -n" ^ n) with
      | None -> Alcotest.failf "inject -n%s did not finish" n
      | Some (status, out, err) ->
          check Alcotest.bool
            (Printf.sprintf "inject -n%s exits with a usage error" n)
            true (status = Unix.WEXITED 2);
          check Alcotest.bool "the error names -n" true (contains err "'-n'");
          check Alcotest.string "no tally is printed" "" out)
    [ " 0"; "-1" ]

(* Every size and count option shares one at-least-1 converter, so a
   value below 1 is a usage error naming the option, never an internal
   error, a clean report of nothing, or an empty rendering. A sizing
   option that does not apply to the subject (check's --scale on an .rgk
   file, --local on a registry benchmark) is a usage error too, as are
   an output file (trace -o, profile/check/lint --json, exp --metrics)
   that is a directory or lies in a directory that does not exist and an
   RMTGPU_JOBS below 1, and so is
   runfile input that cannot be launched: a reversed or negative --show
   range, a --show on a scalar or missing parameter or starting past the
   buffer's end, an --arg count that differs from the kernel's or an
   --arg of the wrong kind for its parameter, a --global that --local
   does not divide, a --local above the device's work-group maximum on
   its own or once the variant doubles the group. *)
let test_scale_usage_error () =
  let saxpy = "examples/kernels/saxpy.rgk" in
  let run_saxpy = "rmtgpu runfile " ^ saxpy ^ " --global 1024 --local 64" in
  let bufs = " --arg buf:1024:findex --arg buf:1024:f32=1.0" in
  List.iter
    (fun (cmd, opt) ->
      match run_shell cmd with
      | None -> Alcotest.failf "%S did not finish" cmd
      | Some (status, out, err) ->
          check Alcotest.bool
            (Printf.sprintf "%S exits with a usage error" cmd)
            true (status = Unix.WEXITED 2);
          check Alcotest.bool
            (Printf.sprintf "the error names %s" opt)
            true
            (contains err (Printf.sprintf "'%s'" opt));
          check Alcotest.bool "not an internal error" false
            (contains err "internal error");
          check Alcotest.string "nothing is simulated" "" out)
    [
      ("rmtgpu run PS original --scale 0", "--scale");
      ("rmtgpu run BinS inter --scale 0", "--scale");
      ("rmtgpu run FWT original --scale=-1", "--scale");
      ("rmtgpu trace BinS original --scale 0 -o /dev/null", "--scale");
      ("rmtgpu profile FWT original --scale 0", "--scale");
      ("rmtgpu check PS baseline --scale 0", "--scale");
      ("rmtgpu lint PS intra+lds --local 0", "--local");
      ("rmtgpu check " ^ saxpy ^ " --local 0", "--local");
      ("rmtgpu check " ^ saxpy ^ " --scale 3", "--scale");
      ("rmtgpu check FWT tmr --local 32", "--local");
      ("rmtgpu runfile " ^ saxpy ^ " --global 1024 --local 0", "--local");
      ("rmtgpu runfile " ^ saxpy ^ " --global 0 --local 64", "--global");
      ("rmtgpu profile PS original --top 0", "--top");
      ("rmtgpu lint PS intra+lds --max-exp 0", "--max-exp");
      ("rmtgpu trace PS original --width 0 -o /dev/null", "--width");
      ("rmtgpu inject PS intra+lds lds -n 2 -j 0", "-j");
      ("rmtgpu exp table1 -j 0", "-j");
      ("rmtgpu exp fig2 --metrics no-such-dir/m.json", "--metrics");
      ("rmtgpu trace PS original -o no-such-dir/t.json", "-o");
      ("rmtgpu profile PS original --json no-such-dir/p.json", "--json");
      ("rmtgpu check PS baseline --json no-such-dir/c.json", "--json");
      ("rmtgpu lint PS intra+lds --json no-such-dir/l.json", "--json");
      ("rmtgpu profile PS original --json .", "--json");
      ("RMTGPU_JOBS=0 rmtgpu exp table1", "RMTGPU_JOBS");
      (run_saxpy ^ bufs ^ " --show 1:-1:8", "--show");
      (run_saxpy ^ bufs ^ " --show 1:8:4", "--show");
      (run_saxpy ^ bufs ^ " --show 5:0:8", "--show");
      (run_saxpy ^ " --arg buf:1024:findex --arg i32:3 --show 1:0:8", "--show");
      (run_saxpy ^ " --arg buf:1024:findex", "--arg");
      (run_saxpy ^ bufs ^ " --arg i32:3", "--arg");
      ("rmtgpu runfile " ^ saxpy ^ " --global 1000 --local 64" ^ bufs, "--global");
      ("rmtgpu runfile " ^ saxpy ^ " --global 1024 --local 512" ^ bufs, "--local");
      ( "rmtgpu runfile " ^ saxpy
        ^ " --global 1024 --local 256 --variant intra+lds" ^ bufs,
        "--local" );
      (run_saxpy ^ bufs ^ " --show 1:1024:2000", "--show");
      (run_saxpy ^ " --arg i32:5 --arg buf:1024:f32=1.0", "--arg");
      (run_saxpy ^ " --arg buf:1024:findex --arg f32:1.0", "--arg");
      (run_saxpy ^ " --arg buf:-5:findex --arg buf:1024:f32=1.0", "--arg");
      (run_saxpy ^ " --arg buf:0 --arg buf:1024:f32=1.0", "--arg");
      (run_saxpy ^ " --arg buf:1000000000 --arg buf:1024:f32=1.0", "--arg");
      ( "rmtgpu runfile " ^ saxpy
        ^ " --global 64 --local 64 --variant inter --arg buf:16777000 --arg \
           buf:64:f32=1.0",
        "--arg" );
    ]

(* A launch that does not finish is a failure of the command: a kernel
   loading far outside every buffer crashes, and runfile exits 1 after
   printing the outcome. *)
let test_runfile_crash_exits_1 () =
  let dir = Filename.temp_dir "rmtgpu_cli" "" in
  let path = Filename.concat dir "oob.rgk" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "kernel oob\n\
        \  param 0: global buffer out\n\
         {\n\
        \  r0 = arg(0)\n\
        \  r1 = mov 2000000000\n\
        \  r2 = load.global [r1]\n\
        \  store.global [r0], r2\n\
         }\n");
  let cmd =
    Printf.sprintf "rmtgpu runfile %s --global 64 --local 64 --arg buf:64"
      (Filename.quote path)
  in
  let result = run_shell cmd in
  Sys.remove path;
  Sys.rmdir dir;
  match result with
  | None -> Alcotest.failf "%S did not finish" cmd
  | Some (status, out, _) ->
      check Alcotest.bool "the run crashed" true (contains out "(crashed:");
      check Alcotest.bool "runfile exits 1" true (status = Unix.WEXITED 1)

(* exp export checks its output directory before it simulates: where
   [results] is a file, the command fails with one line naming it. *)
let test_export_into_file_fails_first () =
  let dir = Filename.temp_dir "rmtgpu_cli" "" in
  let results = Filename.concat dir "results" in
  Out_channel.with_open_text results ignore;
  let result =
    run_shell
      (Printf.sprintf "cd %s && rmtgpu exp table1 export" (Filename.quote dir))
  in
  Sys.remove results;
  Sys.rmdir dir;
  match result with
  | None -> Alcotest.fail "exp export did not finish"
  | Some (status, out, err) ->
      check Alcotest.bool "exits with a usage error" true
        (status = Unix.WEXITED 2);
      check Alcotest.string "one line naming the path"
        "rmtgpu: cannot write CSV files into results: not a directory\n" err;
      check Alcotest.string "no experiment runs" "" out

(* The "# run with:" command of an .rgk header: the comment lines after
   the marker, joined across trailing backslashes. *)
let documented_commands path =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let uncomment l =
    let l = String.trim l in
    String.trim (String.sub l 1 (String.length l - 1))
  in
  let rec collect acc = function
    | l :: rest when String.length l > 0 && l.[0] = '#' ->
        let l = uncomment l in
        if String.ends_with ~suffix:"\\" l then
          collect (String.sub l 0 (String.length l - 1) :: acc) rest
        else String.concat " " (List.rev (l :: acc))
    | _ -> Alcotest.failf "%s: unterminated run-with command" path
  in
  let rec scan = function
    | [] -> []
    | l :: rest when String.trim l = "# run with:" -> collect [] rest :: scan rest
    | _ :: rest -> scan rest
  in
  scan lines

let test_documented_commands () =
  let dir = Filename.concat root "examples/kernels" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".rgk")
    |> List.sort compare
  in
  check Alcotest.bool "example kernels found" true (files <> []);
  List.iter
    (fun f ->
      match documented_commands (Filename.concat dir f) with
      | [] -> Alcotest.failf "%s documents no run-with command" f
      | cmds ->
          List.iter
            (fun cmd ->
              match run_shell cmd with
              | None -> Alcotest.failf "%s: %S did not finish" f cmd
              | Some (status, out, err) ->
                  if status <> Unix.WEXITED 0 then
                    Alcotest.failf "%s: %S failed:\n%s" f cmd err;
                  check Alcotest.bool
                    (Printf.sprintf "%s: kernel finished" f)
                    true (contains out "(finished)"))
            cmds)
    files

let suite =
  [
    tc "inject -n below 1 is a usage error" `Quick test_inject_count_usage_error;
    tc "--scale below 1 is a usage error" `Quick test_scale_usage_error;
    tc "documented example commands run" `Quick test_documented_commands;
    tc "runfile exits 1 when the launch crashes" `Quick
      test_runfile_crash_exits_1;
    tc "exp export into a file fails before simulating" `Quick
      test_export_into_file_fails_first;
  ]
