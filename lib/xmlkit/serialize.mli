(** XML serialization. *)

val escape : string -> string
(** Escapes the five XML-special characters as entities.  A string with
    none of them is returned as it is, without a copy. *)

val escape_into : Buffer.t -> string -> unit
(** [escape_into buf s] appends [escape s] to [buf] without building the
    escaped string. *)

val to_string : Xml.t -> string
(** Compact rendering; empty elements use self-closing tags. *)

val to_pretty_string : Xml.t -> string
(** Indented rendering (2 spaces per level); text-only elements stay on
    one line. *)

val byte_size : Xml.t -> int
(** Size of the compact rendering in bytes. *)
