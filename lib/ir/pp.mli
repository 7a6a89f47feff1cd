(** Pretty-printer for the IR, producing the textual listing format that
    {!Parse} reads back (print/parse round-trip). *)

val string_of_inst : ?reg:(Types.reg -> string) -> Types.inst -> string
(** [reg] names each register operand and destination (default
    [r<index>], the listing syntax). *)

val string_of_value : ?reg:(Types.reg -> string) -> Types.value -> string
val string_of_space : Types.space -> string
val string_of_special : Types.special -> string

val body_to_string : ?reg:(Types.reg -> string) -> Types.stmt list -> string
(** The statements, one per line and indented as in a kernel listing,
    with registers named by [reg] (in conditions too). *)

val kernel_to_string : Types.kernel -> string
(** Render a kernel as a multi-line listing. *)
