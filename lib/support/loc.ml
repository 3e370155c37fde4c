(** Source locations.

    A {!t} is a half-open span in a named source (a file or a synthetic
    buffer).  Locations are carried by the external syntax and by errors;
    the internal syntax is location-free. *)

type pos = {
  line : int;  (** 1-based line number *)
  col : int;  (** 0-based column *)
  offset : int;  (** 0-based byte offset *)
}

type t = { source : string; start_pos : pos; end_pos : pos }

let initial_pos = { line = 1; col = 0; offset = 0 }

(** A location standing for "no position available" (synthetic nodes). *)
let ghost =
  { source = "<ghost>"; start_pos = initial_pos; end_pos = initial_pos }

let is_ghost l = l.source = "<ghost>"

let make ~source ~start_pos ~end_pos = { source; start_pos; end_pos }

let pp ppf l =
  if is_ghost l then Fmt.string ppf "<no location>"
  else if l.start_pos.line = l.end_pos.line then
    Fmt.pf ppf "%s:%d.%d-%d" l.source l.start_pos.line l.start_pos.col
      l.end_pos.col
  else
    Fmt.pf ppf "%s:%d.%d-%d.%d" l.source l.start_pos.line l.start_pos.col
      l.end_pos.line l.end_pos.col

let to_string l = Fmt.str "%a" pp l
