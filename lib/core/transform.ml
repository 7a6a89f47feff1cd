(** Facade over the RMT transforms: a single variant type covering every
    kernel version the evaluation runs, with uniform host-side launch
    adaptation. *)

open Gpu_ir.Types

type variant =
  | Original
  | Intra of { include_lds : bool; comm : Intra_group.comm }
  | Inter of Inter_group.comm_scheme
  | Tmr

exception Unsupported = Intra_group.Unsupported

(** The headline flavors of the paper. *)
let intra_plus_lds = Intra { include_lds = true; comm = Intra_group.Comm_lds }

let intra_minus_lds = Intra { include_lds = false; comm = Intra_group.Comm_lds }
let intra_plus_lds_fast = Intra { include_lds = true; comm = Intra_group.Comm_fast }
let intra_minus_lds_fast = Intra { include_lds = false; comm = Intra_group.Comm_fast }
let inter_group = Inter Inter_group.Per_item

let name = function
  | Original -> "Original"
  | Intra { include_lds; comm } ->
      "Intra-Group"
      ^ (if include_lds then "+LDS" else "-LDS")
      ^ (match comm with
        | Intra_group.Comm_lds -> ""
        | Intra_group.Comm_fast -> " FAST"
        | Intra_group.Comm_none -> " (no comm)")
  | Inter scheme ->
      "Inter-Group"
      ^ (match scheme with
        | Inter_group.Per_item -> ""
        | Inter_group.No_comm -> " (no comm)"
        | Inter_group.Pooled n -> Printf.sprintf " (pool of %d)" n)
  | Tmr -> "tmr"

(** Transform [k] for [variant]. [local_items] is the original flat
    work-group size of the intended launch. *)
let apply variant ~local_items (k : kernel) : kernel =
  match variant with
  | Original -> k
  | Intra { include_lds; comm } ->
      Intra_group.transform { include_lds; comm } ~local_items k
  | Inter scheme -> Inter_group.transform scheme k
  | Tmr -> Tmr.transform ~local_items k

(** Adapt the original NDRange for the transformed kernel. *)
let map_ndrange variant (nd : Gpu_sim.Geom.ndrange) =
  match variant with
  | Original -> nd
  | Intra _ -> Intra_group.map_ndrange nd
  | Inter _ -> Inter_group.map_ndrange nd
  | Tmr -> Tmr.map_ndrange nd

(** Extra launch state for a variant: the arguments to append and a
    [reset] to call on the launching device before every kernel launch
    (the Inter-Group group-id counter must restart from zero each launch;
    the hand-off flags return to zero on their own). *)
type extras = {
  ex_args : Gpu_sim.Device.arg list;
  reset : Gpu_sim.Device.t -> unit;
}

(** Allocate (and zero) the extra buffers for launches of [variant] over
    the {e original} NDRange [nd]. *)
let make_extras variant dev ~(nd : Gpu_sim.Geom.ndrange) : extras =
  match variant with
  | Original | Intra _ | Tmr -> { ex_args = []; reset = ignore }
  | Inter scheme ->
      let bytes = Inter_group.comm_buffer_bytes ~scheme nd in
      let counter = Gpu_sim.Device.alloc dev Inter_group.comm_counter_bytes in
      let comm = Gpu_sim.Device.alloc dev bytes in
      Gpu_sim.Device.fill_i32 dev comm (bytes / 4) 0;
      let reset dev = Gpu_sim.Device.fill_i32 dev counter 1 0 in
      reset dev;
      {
        ex_args = [ Gpu_sim.Device.A_buf counter; Gpu_sim.Device.A_buf comm ];
        reset;
      }
