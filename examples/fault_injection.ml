(* Fault-injection study: empirically compare the coverage of the three
   RMT flavors on one benchmark, reproducing the reasoning behind
   Tables 2 and 3 of the paper.

   - VGPR faults: inside every SoR (both twins keep private registers);
   - SGPR faults: shared by an Intra-Group pair (one scalar execution per
     wavefront), so only Inter-Group detects them;
   - LDS faults: protected by Intra+LDS (duplicated allocation) and by
     Inter-Group (separate groups), but not by Intra-LDS;
   - L1 faults: outside every SoR (redundant requests can share a line).

   Run with: dune exec examples/fault_injection.exe *)

module T = Rmt_core.Transform
module C = Harness.Campaign

let () =
  let bench = Kernels.Registry.find "R" in
  let ctx = Harness.Experiments.create_ctx () in
  Printf.printf "benchmark: %s (%s)\n" bench.name
    (Kernels.Bench.character_name bench.character);
  Printf.printf "%-14s %-6s %s\n" "version" "target" "outcomes";
  List.iter
    (fun (variant, name) ->
      List.iter
        (fun (target, tname) ->
          let t =
            C.tally
              (Harness.Experiments.campaign ctx ~n:16 ~target ~seed:31 bench
                 variant)
          in
          Printf.printf "%-14s %-6s %-48s %s\n" name tname
            (C.tally_to_string t)
            (if C.covered t then "covered" else "NOT covered"))
        [
          (Gpu_sim.Device.T_vgpr, "VGPR");
          (Gpu_sim.Device.T_sgpr, "SGPR");
          (Gpu_sim.Device.T_lds, "LDS");
          (Gpu_sim.Device.T_l1, "L1");
        ])
    [
      (T.Original, "original");
      (T.intra_plus_lds, "intra+LDS");
      (T.intra_minus_lds, "intra-LDS");
      (T.inter_group, "inter");
    ];
  print_endline "\nNote: 'covered' means no injection ended as silent data";
  print_endline "corruption; masked faults hit dead state, crashes are wild";
  print_endline "accesses from corrupted addresses (themselves detectable)."
