(** Chrome-trace-format exporter ([chrome://tracing] / Perfetto JSON).

    Each compute unit becomes a trace "process"; inside it, one "thread"
    row per SIMD carries VALU issues as complete ([ph = "X"]) slices, the
    shared SALU/VMEM/LDS units get one row each, and instantaneous
    scheduler events — dispatch, retirement, barriers, stalls — land on
    two more rows as instant ([ph = "i"]) events. Timestamps are simulated
    cycles written into the [ts]/[dur] microsecond fields, so one trace
    microsecond reads as one core cycle. *)

(* Thread-row ids inside a CU "process". SIMD rows use their own index;
   the shared units and event rows sit above any plausible SIMD count. *)
let tid_salu = 100
let tid_vmem = 101
let tid_lds = 102
let tid_sched = 110
let tid_stall = 111

let thread_label tid =
  if tid < tid_salu then Printf.sprintf "SIMD %d" tid
  else if tid = tid_salu then "SALU"
  else if tid = tid_vmem then "VMEM"
  else if tid = tid_lds then "LDS"
  else if tid = tid_sched then "scheduler"
  else "stalls"

let complete ~name ~pid ~tid ~ts ~dur ~args =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "X");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("ts", Json.Int ts);
      ("dur", Json.Int dur);
      ("args", Json.Obj args);
    ]

let instant ~name ~pid ~tid ~ts ~args =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "i");
      ("s", Json.Str "t");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("ts", Json.Int ts);
      ("args", Json.Obj args);
    ]

let metadata ~name ~pid ?tid ~label () =
  Json.Obj
    ([ ("name", Json.Str name); ("ph", Json.Str "M"); ("pid", Json.Int pid) ]
    @ (match tid with Some t -> [ ("tid", Json.Int t) ] | None -> [])
    @ [ ("args", Json.Obj [ ("name", Json.Str label) ]) ])

let event_json (r : Sink.record) : Json.t =
  let ts = r.Sink.at in
  match r.Sink.ev with
  | Sink.Group_dispatch { cu; group; waves } ->
      instant ~name:"dispatch" ~pid:cu ~tid:tid_sched ~ts
        ~args:[ ("group", Json.Int group); ("waves", Json.Int waves) ]
  | Sink.Group_retire { cu; group } ->
      instant ~name:"retire" ~pid:cu ~tid:tid_sched ~ts
        ~args:[ ("group", Json.Int group) ]
  | Sink.Wave_issue { cu; simd; group; wave; unit_; busy } ->
      let tid =
        match unit_ with
        | Sink.Valu -> simd
        | Sink.Salu -> tid_salu
        | Sink.Vmem -> tid_vmem
        | Sink.Lds -> tid_lds
      in
      complete
        ~name:(Printf.sprintf "g%d.w%d %s" group wave (Sink.unit_name unit_))
        ~pid:cu ~tid ~ts ~dur:(max 1 busy)
        ~args:[ ("group", Json.Int group); ("wave", Json.Int wave) ]
  | Sink.Barrier_arrive { cu; group; wave } ->
      instant ~name:"barrier-arrive" ~pid:cu ~tid:tid_sched ~ts
        ~args:[ ("group", Json.Int group); ("wave", Json.Int wave) ]
  | Sink.Barrier_release { cu; group } ->
      instant ~name:"barrier-release" ~pid:cu ~tid:tid_sched ~ts
        ~args:[ ("group", Json.Int group) ]
  | Sink.Stall { cu; group; wave; cause; _ } ->
      instant ~name:(Sink.stall_name cause) ~pid:cu ~tid:tid_stall ~ts
        ~args:[ ("group", Json.Int group); ("wave", Json.Int wave) ]

module IntPair = struct
  type t = int * int

  let compare = compare
end

module PairSet = Set.Make (IntPair)

let row_of (r : Sink.record) : int * int =
  match r.Sink.ev with
  | Sink.Group_dispatch { cu; _ } | Sink.Group_retire { cu; _ }
  | Sink.Barrier_arrive { cu; _ } | Sink.Barrier_release { cu; _ } ->
      (cu, tid_sched)
  | Sink.Stall { cu; _ } -> (cu, tid_stall)
  | Sink.Wave_issue { cu; simd; unit_; _ } ->
      let tid =
        match unit_ with
        | Sink.Valu -> simd
        | Sink.Salu -> tid_salu
        | Sink.Vmem -> tid_vmem
        | Sink.Lds -> tid_lds
      in
      (cu, tid)

(** Render collected records as one Chrome-trace JSON document.
    [label] names the whole trace (shown by Perfetto as metadata). *)
let to_json ?(label = "rmtgpu trace") (records : Sink.record list) : Json.t =
  let rows =
    List.fold_left (fun acc r -> PairSet.add (row_of r) acc) PairSet.empty
      records
  in
  let cus =
    PairSet.fold (fun (cu, _) acc -> if List.mem cu acc then acc else cu :: acc)
      rows []
    |> List.sort compare
  in
  let meta =
    List.map
      (fun cu ->
        metadata ~name:"process_name" ~pid:cu
          ~label:(Printf.sprintf "CU %d" cu) ())
      cus
    @ (PairSet.elements rows
      |> List.map (fun (cu, tid) ->
             metadata ~name:"thread_name" ~pid:cu ~tid
               ~label:(thread_label tid) ()))
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj [ ("label", Json.Str label) ]);
      ("traceEvents", Json.List (meta @ List.map event_json records));
    ]

let to_string ?label records = Json.to_string (to_json ?label records)
