(* Tests for the dynamic kernel sanitizer (gpu_san) and the static
   RMT-invariant checker (Rmt_core.Sor_check):

   - negative: every defect the seeded generator plants is flagged, with
     the right class, memory space and site shape;
   - positive: the race-free generator corpus, every RMT flavor over it,
     the pooled Inter-Group rendezvous and a wave-resident TMR kernel
     all come back finding-free;
   - zero perturbation: a sanitized run is cycle-, counter- and
     output-identical to a plain one, and allocates at most 1.5x as much;
   - static: the SoR checker accepts every properly transformed kernel
     and rejects the comparison-elided ablations;
   - reports: byte-identical to test/golden_san.txt;
   - lifecycle: the raw Shadow API across launches, LDS, barriers and
     atomic publication. *)

open Gpu_ir
module Sim = Gpu_sim
module Shadow = Gpu_san.Shadow
module Report = Gpu_san.Report
module Sor = Rmt_core.Sor_check
module T = Rmt_core.Transform
module Json = Gpu_trace.Json

let check = Alcotest.check
let tc = Alcotest.test_case

let cls_label f = Shadow.cls_id f.Shadow.f_class

let fail_report what san =
  Alcotest.fail
    (Printf.sprintf "%s:\n%s" what (Report.to_string (Shadow.findings san)))

(* ------------------------------------------------------------------ *)
(* Seeded defects (negative direction)                                 *)
(* ------------------------------------------------------------------ *)

let test_seeded_defects_flagged () =
  List.iter
    (fun defect ->
      let cls, space = Gen_kernel.expected_finding defect in
      List.iter
        (fun seed ->
          let san = Shadow.create () in
          let (_ : int array) = Gen_kernel.run ~defect ~san seed in
          let hits =
            List.filter
              (fun f -> f.Shadow.f_class = cls && f.Shadow.f_space = space)
              (Shadow.findings san)
          in
          if hits = [] then
            Alcotest.fail
              (Printf.sprintf
                 "defect %s (seed %d) not flagged as %s; report:\n%s"
                 (Gen_kernel.defect_name defect)
                 seed (Shadow.cls_id cls) (Report.to_string (Shadow.findings san)));
          (* races must carry both conflicting sites *)
          List.iter
            (fun f ->
              match f.Shadow.f_class with
              | Shadow.Race_ww | Shadow.Race_rw ->
                  check Alcotest.bool
                    (Printf.sprintf "%s carries both sites" (cls_label f))
                    true
                    (f.Shadow.f_first <> None)
              | _ -> ())
            hits)
        [ 1; 2; 3 ])
    Gen_kernel.all_defects

(* The missing-barrier defect races a store site against a *different*
   load site: the reported pair must name both instructions. *)
let test_rw_race_site_pair () =
  let san = Shadow.create () in
  let (_ : int array) =
    Gen_kernel.run ~defect:Gen_kernel.D_lds_rw_nobarrier ~san 1
  in
  let ok =
    List.exists
      (fun f ->
        f.Shadow.f_class = Shadow.Race_rw
        && f.Shadow.f_space = Types.Local
        &&
        match f.Shadow.f_first with
        | Some first -> first.Shadow.a_site <> f.Shadow.f_second.Shadow.a_site
        | None -> false)
      (Shadow.findings san)
  in
  if not ok then fail_report "no RW race with two distinct sites" san

(* ------------------------------------------------------------------ *)
(* Race-free corpus (positive direction)                               *)
(* ------------------------------------------------------------------ *)

let test_generator_corpus_clean () =
  for seed = 1 to 12 do
    let san = Shadow.create () in
    let (_ : int array) = Gen_kernel.run ~san seed in
    if not (Shadow.clean san) then
      fail_report (Printf.sprintf "seed %d not clean" seed) san
  done

let test_rmt_variants_clean () =
  List.iter
    (fun variant ->
      for seed = 1 to 5 do
        let san = Shadow.create () in
        let (_ : int array) =
          Gen_kernel.run ~transform:variant ~san seed
        in
        if not (Shadow.clean san) then
          fail_report
            (Printf.sprintf "%s seed %d not clean" (T.name variant) seed)
            san
      done)
    [ T.intra_plus_lds; T.intra_minus_lds; T.intra_plus_lds_fast; T.inter_group ]

(* The pooled rendezvous interleaves plain buffer deposits from many
   producers; the CAS claim / A_xchg publish chain must order them. *)
let test_pooled_inter_clean () =
  let b = Builder.create "pooled_san" in
  let out = Builder.buffer_param b "out" in
  let gid = Builder.global_id b 0 in
  Builder.gstore_elem b out gid (Builder.mul b gid (Builder.imm 3));
  let k0 = Builder.finish b in
  let variant = T.Inter (Rmt_core.Inter_group.Pooled 16) in
  let k = T.apply variant ~local_items:64 k0 in
  Verify.check k;
  let n = 256 in
  let san = Shadow.create () in
  let dev =
    Sim.Device.create ~san { Sim.Config.small with max_cycles = 10_000_000 }
  in
  let buf = Sim.Device.alloc dev (n * 4) in
  let nd0 = Sim.Geom.make_ndrange n 64 in
  let extras = T.make_extras variant dev ~nd:nd0 in
  let r =
    Sim.Device.launch dev k ~nd:(T.map_ndrange variant nd0)
      ~args:(Sim.Device.A_buf buf :: extras.T.ex_args)
  in
  check Alcotest.bool "finished" true
    (r.Sim.Device.outcome = Sim.Device.Finished);
  check Alcotest.bool "output correct" true
    (Sim.Device.read_i32_array dev buf n = Array.init n (fun i -> i * 3));
  if not (Shadow.clean san) then fail_report "pooled inter not clean" san

(* TMR is dynamically checkable when the tripled group fits one wave. *)
let test_tmr_dynamic_clean () =
  let wg = 16 in
  let b = Builder.create "tmr_san" in
  let input = Builder.buffer_param b "in" in
  let output = Builder.buffer_param b "out" in
  let lds = Builder.lds_alloc b "x" (wg * 4) in
  let gid = Builder.global_id b 0 in
  let lid = Builder.local_id b 0 in
  let slot = Builder.add b lds (Builder.shl b lid (Builder.imm 2)) in
  Builder.lstore b slot (Builder.mul b lid (Builder.imm 7));
  let v = Builder.gload_elem b input gid in
  let w =
    Builder.add b (Builder.mul b v (Builder.imm 3)) (Builder.lload b slot)
  in
  Builder.gstore_elem b output gid w;
  let k0 = Builder.finish b in
  let k = T.apply T.Tmr ~local_items:wg k0 in
  Verify.check k;
  let n = 256 in
  let san = Shadow.create () in
  let dev = Sim.Device.create ~san Sim.Config.small in
  let inp = Sim.Device.alloc dev (n * 4) in
  let out = Sim.Device.alloc dev (n * 4) in
  let data = Array.init n (fun i -> (i * 13) land 0xFFFF) in
  Sim.Device.write_i32_array dev inp data;
  let r =
    Sim.Device.launch dev k
      ~nd:(T.map_ndrange T.Tmr (Sim.Geom.make_ndrange n wg))
      ~args:[ Sim.Device.A_buf inp; A_buf out ]
  in
  check Alcotest.bool "finished" true
    (r.Sim.Device.outcome = Sim.Device.Finished);
  check Alcotest.bool "output correct" true
    (Sim.Device.read_i32_array dev out n
    = Array.init n (fun i -> (data.(i) * 3) + (7 * (i mod wg))));
  if not (Shadow.clean san) then fail_report "TMR not clean" san

(* A registry benchmark end-to-end through the check harness: static and
   dynamic verdicts clean across the standard target matrix. FW is the
   interesting one — its in-place relaxation leans on the benign
   same-value store exemption. *)
let test_check_bench_clean () =
  List.iter
    (fun id ->
      let report = Harness.Check.check_bench (Kernels.Registry.find id) in
      if not (Harness.Check.clean report) then
        Alcotest.fail (Harness.Check.to_string report))
    [ "BinS"; "FW" ]

(* The TMR column of the check gate skips its dynamic run by design
   (3 × group > wavefront on every registry workload); the skip must be
   a structured classification CI can assert on, both on the entry and
   in the JSON artifact — not just prose. *)
let test_check_tmr_static_only_skip () =
  let report =
    Harness.Check.check_bench
      ~targets:[ ("tmr", T.Tmr) ]
      (Kernels.Registry.find "BinS")
  in
  let e =
    match report.Harness.Check.r_entries with
    | [ e ] -> e
    | _ -> Alcotest.fail "expected exactly one entry"
  in
  (match e.Harness.Check.e_skip_kind with
  | Some Harness.Check.Sk_static_only -> ()
  | _ -> Alcotest.fail "TMR entry not classified Sk_static_only");
  check Alcotest.bool "dynamic run skipped" true
    (e.Harness.Check.e_san = None);
  match Harness.Check.entry_to_json e with
  | Gpu_trace.Json.Obj fields -> (
      match List.assoc_opt "skip_kind" fields with
      | Some (Gpu_trace.Json.Str "static_only") -> ()
      | _ -> Alcotest.fail "JSON skip_kind is not \"static_only\"")
  | _ -> Alcotest.fail "entry JSON is not an object"

(* ------------------------------------------------------------------ *)
(* Zero perturbation                                                   *)
(* ------------------------------------------------------------------ *)

let launch_gen ?san seed =
  let k = Gen_kernel.generate seed in
  let n = Gen_kernel.n_items in
  let dev = Sim.Device.create ?san Sim.Config.small in
  let input = Sim.Device.alloc dev (n * 4) in
  let output = Sim.Device.alloc dev (n * 4) in
  for i = 0 to n - 1 do
    Sim.Device.write_i32 dev input i ((i * 2654435761) land 0xFFFF);
    Sim.Device.write_i32 dev output i 0
  done;
  let r =
    Sim.Device.launch dev k
      ~nd:(Sim.Geom.make_ndrange n Gen_kernel.wg)
      ~args:[ Sim.Device.A_buf input; A_buf output; A_i32 12345 ]
  in
  (r, Sim.Device.read_i32_array dev output n)

let same_counters what a b =
  List.iter2
    (fun (ka, va) (kb, vb) ->
      check Alcotest.bool
        (Printf.sprintf "%s: counter %s" what ka)
        true
        (ka = kb && va = vb))
    (Sim.Counters.to_fields a) (Sim.Counters.to_fields b)

let test_sanitizer_does_not_perturb () =
  List.iter
    (fun seed ->
      let plain, out_plain = launch_gen seed in
      let san = Shadow.create () in
      let sanitized, out_san = launch_gen ~san seed in
      check Alcotest.int
        (Printf.sprintf "seed %d: same cycles" seed)
        plain.Sim.Device.cycles sanitized.Sim.Device.cycles;
      same_counters
        (Printf.sprintf "seed %d" seed)
        plain.Sim.Device.counters sanitized.Sim.Device.counters;
      check Alcotest.bool
        (Printf.sprintf "seed %d: same output" seed)
        true (out_plain = out_san))
    [ 2; 5; 9 ]

(* Same property at the harness level, over a multi-pass benchmark and
   the spin-heavy Inter flavor. *)
let test_sanitizer_does_not_perturb_bench () =
  let b = Kernels.Registry.find "BinS" in
  List.iter
    (fun variant ->
      let plain = Harness.Run.run b variant in
      let sanitized = Harness.Run.run ~sanitize:true b variant in
      check Alcotest.int "same cycles" plain.Harness.Run.cycles
        sanitized.Harness.Run.cycles;
      same_counters (T.name variant) plain.Harness.Run.counters
        sanitized.Harness.Run.counters;
      check Alcotest.bool "both verified" true
        (plain.Harness.Run.verified && sanitized.Harness.Run.verified);
      check Alcotest.bool "no findings unless asked" true
        (plain.Harness.Run.san = None);
      match sanitized.Harness.Run.san with
      | Some fs -> check Alcotest.bool "clean" true (fs = [])
      | None -> Alcotest.fail "~sanitize:true returned no findings")
    [ T.Original; T.inter_group ]

(* A summary keeps the sanitizer's findings, not its shadow (megabytes
   of per-word state), so a campaign can hold every injected run's
   summary: a sanitized, injected BinS Inter summary reaches well under
   1 MB (the shadow alone is about 8 MB). *)
let test_sanitized_summary_is_small () =
  let b = Kernels.Registry.find "BinS" in
  let s =
    Harness.Run.run ~sanitize:true
      ~inject:{ Sim.Device.at_cycle = 100; target = Sim.Device.T_vgpr; iseed = 5 }
      b T.inter_group
  in
  check Alcotest.bool "sanitized" true (s.Harness.Run.san <> None);
  let bytes = Obj.reachable_words (Obj.repr s) * (Sys.word_size / 8) in
  if bytes >= 1_000_000 then
    Alcotest.failf "sanitized summary reaches %d bytes" bytes

(* The shadow allocates per page, group and finding, never per lane: a
   sanitized run allocates at most 1.5x the minor words of a plain one
   (a shadow that builds a record per lane access allocates over 10x). *)
let test_sanitizer_allocation () =
  let minor_words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  List.iter
    (fun id ->
      let b = Kernels.Registry.find id in
      let run sanitize () = Harness.Run.run ~sanitize b T.intra_plus_lds in
      ignore (run false ());
      let plain = minor_words (run false) in
      let sanitized = minor_words (run true) in
      if sanitized > 1.5 *. plain then
        Alcotest.failf
          "%s intra+lds: a sanitized run allocates %.0f minor words, %.1fx \
           the %.0f of a plain run (limit 1.5x)"
          id sanitized (sanitized /. plain) plain)
    [ "FWT"; "BinS" ]

(* ------------------------------------------------------------------ *)
(* Static SoR-invariant checker                                        *)
(* ------------------------------------------------------------------ *)

(* ids, LDS, a barrier, and both store kinds *)
let sor_kernel () =
  let b = Builder.create "sor" in
  let out = Builder.buffer_param b "out" in
  let lds = Builder.lds_alloc b "x" (64 * 4) in
  let gid = Builder.global_id b 0 in
  let lid = Builder.local_id b 0 in
  let slot = Builder.add b lds (Builder.shl b lid (Builder.imm 2)) in
  Builder.lstore b slot lid;
  Builder.barrier b;
  let v = Builder.lload b slot in
  Builder.gstore_elem b out gid (Builder.add b gid v);
  Builder.finish b

let test_static_checker_accepts_transformed () =
  let k0 = sor_kernel () in
  List.iter
    (fun (variant, local_items, label) ->
      let k = T.apply variant ~local_items k0 in
      match Sor.check variant k with
      | [] -> ()
      | v :: _ ->
          Alcotest.fail
            (Printf.sprintf "%s rejected: %s" label (Sor.describe v)))
    [
      (T.Original, 64, "original");
      (T.intra_plus_lds, 64, "intra+lds");
      (T.intra_plus_lds_fast, 64, "intra+lds fast");
      (T.intra_minus_lds, 64, "intra-lds");
      (T.intra_minus_lds_fast, 64, "intra-lds fast");
      (T.inter_group, 64, "inter");
      (T.Tmr, 16, "tmr");
    ]

let test_static_checker_flags_elided_comparison () =
  let k0 = sor_kernel () in
  let cases =
    [
      (* untransformed code claims an RMT contract *)
      (k0, T.intra_plus_lds, "untransformed as intra+lds");
      (* comparison elided: the ablations duplicate but never compare *)
      ( T.apply
          (T.Intra { include_lds = true; comm = Rmt_core.Intra_group.Comm_none })
          ~local_items:64 k0,
        T.intra_plus_lds,
        "intra no-comm" );
      ( T.apply (T.Inter Rmt_core.Inter_group.No_comm) ~local_items:64 k0,
        T.inter_group,
        "inter no-comm" );
      (* +LDS kernels leave local stores uncompared: the -LDS contract
         (local stores inside the sphere) must reject them *)
      ( T.apply T.intra_plus_lds ~local_items:64 k0,
        T.intra_minus_lds,
        "intra+lds under the -LDS contract" );
    ]
  in
  List.iter
    (fun (k, contract, label) ->
      check Alcotest.bool
        (Printf.sprintf "%s flagged" label)
        true
        (Sor.check contract k <> []))
    cases

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let test_report_rendering () =
  let san = Shadow.create () in
  let (_ : int array) =
    Gen_kernel.run ~defect:Gen_kernel.D_oob_store ~san 1
  in
  let text = Report.to_string (Shadow.findings san) in
  check Alcotest.bool "text names the class" true
    (let sub = "out-of-bounds" in
     let rec find i =
       i + String.length sub <= String.length text
       && (String.sub text i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  (* JSON survives a round-trip through the tracer's parser *)
  let j = Json.parse (Json.to_string (Report.to_json (Shadow.findings san))) in
  check Alcotest.bool "json clean=false" true
    (Json.member "clean" j = Some (Json.Bool false));
  match Json.member "findings" j with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "json findings list missing or empty"

(* ------------------------------------------------------------------ *)
(* Golden reports                                                      *)
(* ------------------------------------------------------------------ *)

(* a dependency of the test, staged next to the executable *)
let golden_san_file =
  Filename.concat (Filename.dirname Sys.executable_name) "golden_san.txt"

(* Report.to_string and Report.to_json of every seeded defect (seeds 1-6)
   and of the clean corpus (seeds 1-12), each under a "== label seed N"
   header: any change to what the shadow reports, or to how a finding is
   rendered, changes these bytes. *)
let golden_san_text () =
  let buf = Buffer.create 65536 in
  let entry label ?defect seed =
    let san = Shadow.create () in
    let (_ : int array) = Gen_kernel.run ?defect ~san seed in
    let kernel = Gen_kernel.generate ?defect seed in
    Printf.bprintf buf "== %s seed %d\n%s%s\n" label seed
      (Report.to_string ~kernel (Shadow.findings san))
      (Json.to_string (Report.to_json ~kernel (Shadow.findings san)))
  in
  List.iter
    (fun defect ->
      for seed = 1 to 6 do
        entry (Gen_kernel.defect_name defect) ~defect seed
      done)
    Gen_kernel.all_defects;
  for seed = 1 to 12 do
    entry "clean" seed
  done;
  Buffer.contents buf

(* On a mismatch the actual text is written to a temporary file, which
   replaces golden_san.txt when the change is deliberate. *)
let test_golden_reports () =
  let expected = In_channel.with_open_bin golden_san_file In_channel.input_all in
  let actual = golden_san_text () in
  if actual <> expected then begin
    let path = Filename.temp_file "golden_san" ".txt" in
    Out_channel.with_open_bin path (fun oc -> output_string oc actual);
    let el = String.split_on_char '\n' expected
    and al = String.split_on_char '\n' actual in
    let rec first_diff i = function
      | e :: es, a :: as_ -> if e = a then first_diff (i + 1) (es, as_) else (i, e, a)
      | e :: _, [] -> (i, e, "<end of output>")
      | [], a :: _ -> (i, "<end of file>", a)
      | [], [] -> (i, "", "")
    in
    let line, e, a = first_diff 1 (el, al) in
    Alcotest.failf
      "sanitizer reports differ from golden_san.txt at line %d:\n\
      \  expected: %s\n\
      \  actual:   %s\n\
       actual text written to %s"
      line e a path
  end

(* ------------------------------------------------------------------ *)
(* Shadow lifecycle, through the raw API                               *)
(* ------------------------------------------------------------------ *)

let gaccess t ~group ~wave ~item kind addr =
  Shadow.global_access t ~group ~wave ~item ~kind ~unchanged:false ~addr

let laccess t ~group ~wave ~item kind addr =
  Shadow.lds_access t ~group ~wave ~item ~kind ~unchanged:false ~addr
    ~lds_bytes:256

let classes t = List.map cls_label (Shadow.findings t)

let check_classes what expected t =
  check Alcotest.(list string) what expected (classes t)

(* A fresh shadow holding one live 64-byte buffer at 0x100. *)
let one_buffer () =
  let t = Shadow.create () in
  Shadow.note_alloc t ~addr:0x100 ~size:64;
  t

let test_lifecycle_launches () =
  let t = one_buffer () in
  Shadow.host_write t 0x100;
  Shadow.begin_launch t;
  Shadow.set_site t 1;
  gaccess t ~group:0 ~wave:0 ~item:0 Shadow.Write 0x104;
  (* init bits survive the launch boundary, host- and device-written *)
  Shadow.begin_launch t;
  Shadow.set_site t 2;
  gaccess t ~group:1 ~wave:0 ~item:64 Shadow.Read 0x100;
  gaccess t ~group:1 ~wave:0 ~item:64 Shadow.Read 0x104;
  check_classes "initialized words stay initialized" [] t;
  (* last-access state does not: a write and a read by different actors
     in different launches are ordered by the boundary *)
  Shadow.set_site t 3;
  gaccess t ~group:2 ~wave:1 ~item:130 Shadow.Write 0x108;
  Shadow.begin_launch t;
  Shadow.set_site t 4;
  gaccess t ~group:0 ~wave:0 ~item:0 Shadow.Read 0x108;
  check_classes "a launch boundary orders everything" [] t;
  (* the same pair inside one launch races *)
  Shadow.set_site t 5;
  gaccess t ~group:3 ~wave:0 ~item:192 Shadow.Write 0x10c;
  Shadow.set_site t 6;
  gaccess t ~group:0 ~wave:0 ~item:0 Shadow.Read 0x10c;
  check_classes "unordered within a launch" [ "race-rw" ] t

let test_lifecycle_lds () =
  let t = Shadow.create () in
  Shadow.begin_launch t;
  Shadow.set_site t 1;
  laccess t ~group:0 ~wave:0 ~item:0 Shadow.Write 0;
  Shadow.barrier_release t ~group:0;
  Shadow.set_site t 2;
  laccess t ~group:0 ~wave:1 ~item:64 Shadow.Read 0;
  check_classes "barrier-ordered" [] t;
  (* a new launch starts the group's LDS uninitialized at epoch 0 *)
  Shadow.begin_launch t;
  Shadow.set_site t 3;
  laccess t ~group:0 ~wave:1 ~item:64 Shadow.Read 0;
  check_classes "LDS init bits reset" [ "uninit-read" ] t;
  match Shadow.findings t with
  | [ f ] -> check Alcotest.int "epoch reset" 0 f.Shadow.f_second.Shadow.a_epoch
  | _ -> Alcotest.fail "expected one finding"

let test_lifecycle_barrier () =
  let run ~barrier =
    let t = Shadow.create () in
    Shadow.begin_launch t;
    Shadow.set_site t 1;
    laccess t ~group:0 ~wave:0 ~item:3 Shadow.Write 12;
    if barrier then Shadow.barrier_release t ~group:0;
    Shadow.set_site t 2;
    laccess t ~group:0 ~wave:1 ~item:67 Shadow.Read 12;
    classes t
  in
  check Alcotest.(list string) "separated by a barrier" [] (run ~barrier:true);
  check Alcotest.(list string) "no barrier" [ "race-rw" ] (run ~barrier:false)

(* Producer (group 0) writes data and publishes a flag with an atomic
   read-modify-write; consumer (group 1) reads the data, after acquiring
   the flag with the spin read or without. *)
let test_lifecycle_atomic_publish () =
  let data = 0x100 and flag = 0x13c in
  let run ~acquire =
    let t = one_buffer () in
    Shadow.host_write t flag;
    Shadow.begin_launch t;
    Shadow.set_site t 1;
    gaccess t ~group:0 ~wave:0 ~item:0 Shadow.Write data;
    Shadow.set_site t 2;
    gaccess t ~group:0 ~wave:0 ~item:0 Shadow.Atomic_rw flag;
    if acquire then begin
      Shadow.set_site t 3;
      gaccess t ~group:1 ~wave:0 ~item:0 Shadow.Atomic_read flag
    end;
    Shadow.set_site t 4;
    gaccess t ~group:1 ~wave:0 ~item:0 Shadow.Read data;
    classes t
  in
  check Alcotest.(list string) "acquired" [] (run ~acquire:true);
  check Alcotest.(list string) "not acquired" [ "race-rw" ] (run ~acquire:false)

let suite =
  [
    tc "seeded defects all flagged" `Quick test_seeded_defects_flagged;
    tc "rw race reports both sites" `Quick test_rw_race_site_pair;
    tc "generator corpus clean" `Quick test_generator_corpus_clean;
    tc "RMT variants clean" `Slow test_rmt_variants_clean;
    tc "pooled inter clean" `Quick test_pooled_inter_clean;
    tc "TMR dynamic clean" `Quick test_tmr_dynamic_clean;
    tc "check harness: BinS and FW clean" `Slow test_check_bench_clean;
    tc "check harness: TMR skip is static_only" `Quick
      test_check_tmr_static_only_skip;
    tc "sanitizer does not perturb" `Quick test_sanitizer_does_not_perturb;
    tc "sanitizer does not perturb benches" `Slow
      test_sanitizer_does_not_perturb_bench;
    tc "summary keeps findings, not the shadow" `Quick
      test_sanitized_summary_is_small;
    tc "sanitizer allocation within 1.5x of a plain run" `Quick
      test_sanitizer_allocation;
    tc "static: accepts transformed kernels" `Quick
      test_static_checker_accepts_transformed;
    tc "static: flags elided comparison" `Quick
      test_static_checker_flags_elided_comparison;
    tc "report rendering + json round-trip" `Quick test_report_rendering;
    tc "golden reports match golden_san.txt" `Quick test_golden_reports;
    tc "lifecycle: launches" `Quick test_lifecycle_launches;
    tc "lifecycle: LDS per launch" `Quick test_lifecycle_lds;
    tc "lifecycle: barrier" `Quick test_lifecycle_barrier;
    tc "lifecycle: atomic publish" `Quick test_lifecycle_atomic_publish;
  ]
