(** Set-associative LRU cache tag store (timing model only — data always
    lives in the single functional memory image). Used for the per-CU
    write-through L1 and the shared L2. *)

type t = {
  line_bytes : int;
  n_sets : int;
  assoc : int;
  tags : int array;    (** [set * assoc + way] -> line address, -1 = empty *)
  stamps : int array;  (** LRU timestamps *)
  mutable tick : int;
}

let create ~bytes ~line_bytes ~assoc =
  let n_lines = bytes / line_bytes in
  let n_sets = max 1 (n_lines / assoc) in
  {
    line_bytes;
    n_sets;
    assoc;
    tags = Array.make (n_sets * assoc) (-1);
    stamps = Array.make (n_sets * assoc) 0;
    tick = 0;
  }

let copy t = { t with tags = Array.copy t.tags; stamps = Array.copy t.stamps }

let line_addr t addr = addr - (addr mod t.line_bytes)

let set_of t line = line / t.line_bytes mod t.n_sets

(** [probe t line] is true when [line] is resident; does not update LRU. *)
let probe t line =
  let s = set_of t line in
  let rec go w = w < t.assoc && (t.tags.((s * t.assoc) + w) = line || go (w + 1)) in
  go 0

(** [access t line] looks up [line], allocating (with LRU eviction) on a
    miss. Returns [true] on hit. The evicted line, if any, is reported so
    callers can clear fault poison attached to it. *)
let access ?(on_evict = fun (_ : int) -> ()) t line =
  t.tick <- t.tick + 1;
  let s = set_of t line in
  let base = s * t.assoc in
  let hit = ref false in
  for w = 0 to t.assoc - 1 do
    if t.tags.(base + w) = line then begin
      hit := true;
      t.stamps.(base + w) <- t.tick
    end
  done;
  if not !hit then begin
    (* evict the LRU way *)
    let victim = ref 0 in
    for w = 1 to t.assoc - 1 do
      if t.stamps.(base + w) < t.stamps.(base + !victim) then victim := w
    done;
    let old = t.tags.(base + !victim) in
    if old >= 0 then on_evict old;
    t.tags.(base + !victim) <- line;
    t.stamps.(base + !victim) <- t.tick
  end;
  !hit

(** Invalidate a line if resident (used by atomics, which operate in L2 and
    must not leave stale L1 copies in this single-image model). *)
let invalidate t line =
  let s = set_of t line in
  let base = s * t.assoc in
  for w = 0 to t.assoc - 1 do
    if t.tags.(base + w) = line then t.tags.(base + w) <- -1
  done

(** Pick a currently resident line for fault injection, scanning from a
    pseudo-random start; [None] when the cache is empty. *)
let random_resident_line t ~seed =
  let n = t.n_sets * t.assoc in
  if n = 0 then None
  else
    let start = abs seed mod n in
    let rec go i =
      if i >= n then None
      else
        let idx = (start + i) mod n in
        if t.tags.(idx) >= 0 then Some t.tags.(idx) else go (i + 1)
    in
    go 0

