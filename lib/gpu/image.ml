(* Sparse page-granular memory image. Every slot of [pages] starts out
   as the one shared [zero_page]; a store of a non-zero word gives its
   slot a private zero-filled page first. [zero_page] is never written,
   so reads need no branch and a run pays only for the pages it
   writes. *)

let page_bits = 12
let page_bytes = 1 lsl page_bits
let page_mask = page_bytes - 1
let zero_page = Bytes.make page_bytes '\000'

type t = { size : int; pages : Bytes.t array }

let create size =
  { size; pages = Array.make ((size + page_mask) lsr page_bits) zero_page }

let size t = t.size

let read32 t addr =
  Int32.to_int (Bytes.get_int32_le t.pages.(addr lsr page_bits) (addr land page_mask))

let write32 t addr v =
  let i = addr lsr page_bits in
  let page = t.pages.(i) in
  if page != zero_page then
    Bytes.set_int32_le page (addr land page_mask) (Int32.of_int v)
  else if v land 0xFFFF_FFFF <> 0 then begin
    let page = Bytes.make page_bytes '\000' in
    t.pages.(i) <- page;
    Bytes.set_int32_le page (addr land page_mask) (Int32.of_int v)
  end

let copy t =
  {
    t with
    pages = Array.map (fun p -> if p == zero_page then p else Bytes.copy p) t.pages;
  }

let resident_pages t =
  Array.fold_left (fun n p -> if p == zero_page then n else n + 1) 0 t.pages
