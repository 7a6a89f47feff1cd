(** Render sanitizer findings as a human-readable listing and as JSON.

    The renderers take a finding list ({!Shadow.findings}, or a run
    summary's [san]), translate it into the shared
    {!Gpu_findings.Findings} vocabulary (one severity ranking, one JSON
    envelope, one exit-code policy across [check], [lint] and the
    sanitizer) and can resolve site ids to instruction text when given
    the kernel the shadow observed ({!Gpu_ir.Site} ids are dense program
    order, so [Site.insts] maps id → instruction directly). *)

open Shadow
module Findings = Gpu_findings.Findings
module Json = Gpu_trace.Json

let inst_text insts site =
  if site < 0 then "<host>"
  else
    match insts with
    | Some a when site < Array.length a ->
        Gpu_ir.Pp.string_of_inst a.(site)
    | _ -> "?"

let coord_text (c : coord) =
  Printf.sprintf "group %d wave %d item %d" c.c_group c.c_wave c.c_item

let access_text insts (a : access) =
  Printf.sprintf "site %d (%s) by %s [epoch %d]" a.a_site
    (inst_text insts a.a_site)
    (coord_text a.a_coord) a.a_epoch

let space_name = function
  | Gpu_ir.Types.Global -> "global"
  | Gpu_ir.Types.Local -> "LDS"

let json_of_access insts (a : access) : Json.t =
  Obj
    [
      ("site", Int a.a_site);
      ("inst", Str (inst_text insts a.a_site));
      ("group", Int a.a_coord.c_group);
      ("wave", Int a.a_coord.c_wave);
      ("item", Int a.a_coord.c_item);
      ("epoch", Int a.a_epoch);
    ]

(** Each sanitizer finding as a generic {!Findings.finding}: the class
    id becomes the category, the flagging access anchors the site, and
    the conflicting accesses travel both as human-readable notes and as
    structured JSON detail. *)
let to_findings ?kernel (fs : finding list) : Findings.finding list =
  let insts = Option.map Gpu_ir.Site.insts kernel in
  List.map
    (fun (f : finding) ->
      let notes =
        (match f.f_first with
        | Some a -> [ "first:  " ^ access_text insts a ]
        | None -> [])
        @ [
            (if f.f_first = None then "access: " else "second: ")
            ^ access_text insts f.f_second;
          ]
      in
      Findings.make ~category:(cls_id f.f_class)
        ~site:f.f_second.a_site
        ~inst:(inst_text insts f.f_second.a_site)
        ~space:(space_name f.f_space)
        ~detail:
          [
            ("class", Json.Str (cls_id f.f_class));
            ("addr", Json.Int f.f_addr);
            ( "first",
              match f.f_first with
              | Some a -> json_of_access insts a
              | None -> Json.Null );
            ("second", json_of_access insts f.f_second);
            ("count", Int f.f_count);
          ]
        ~notes
        (Printf.sprintf "%s on %s word 0x%x (%d occurrence%s)"
           (cls_name f.f_class) (space_name f.f_space) f.f_addr f.f_count
           (if f.f_count = 1 then "" else "s")))
    fs

(** Human-readable multi-line report. [kernel], when given, lets the
    report print the instruction behind each site id. *)
let to_string ?kernel fs =
  let fs = to_findings ?kernel fs in
  if fs = [] then "sanitizer: clean (0 findings)\n"
  else
    Printf.sprintf "sanitizer: %d finding(s)\n%s" (List.length fs)
      (Findings.list_to_string fs)

let to_json ?kernel fs : Json.t = Findings.list_to_json (to_findings ?kernel fs)
