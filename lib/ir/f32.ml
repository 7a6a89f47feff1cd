(** IEEE-754 binary32 arithmetic emulated on OCaml [int] bit patterns.

    Register values throughout the simulator are 32-bit patterns stored in
    native [int]s (sign-extended). Floating-point instructions reinterpret
    the pattern as binary32, compute in double precision, and round the
    result back to binary32 via [Int32.bits_of_float], which rounds to
    nearest-even. CPU reference implementations use the same helpers so
    that integer kernels verify bit-exactly and float kernels verify within
    a small tolerance independent of accumulated double-precision slack. *)

(** Normalize an [int] to a sign-extended 32-bit value. *)
let norm (v : int) : int =
  let v = v land 0xFFFFFFFF in
  if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

(** Unsigned view of a 32-bit pattern, in [0, 2^32). *)
let to_u (v : int) : int = v land 0xFFFFFFFF

(** Bit pattern (sign-extended int) of a float rounded to binary32. *)
let of_float (x : float) : int = norm (Int32.to_int (Int32.bits_of_float x))

(** Float value of a 32-bit pattern. *)
let to_float (v : int) : float = Int32.float_of_bits (Int32.of_int v)

(** Round a double to the nearest binary32 value (as a float). *)
let round (x : float) : float = Int32.float_of_bits (Int32.bits_of_float x)
