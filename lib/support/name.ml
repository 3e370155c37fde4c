(** Name hints.

    The internal syntax is de Bruijn; binders carry a [Name.t] purely as a
    printing hint.  [fresh_for] renames a hint away from a set of names that
    are already visible, appending or bumping a numeric suffix. *)

type t = string

let to_string (n : t) = n

(** Split a trailing decimal suffix: ["x12"] -> ("x", Some 12). *)
let split_suffix (n : t) =
  let len = String.length n in
  let rec go i =
    if i > 0 && n.[i - 1] >= '0' && n.[i - 1] <= '9' then go (i - 1) else i
  in
  let cut = go len in
  if cut = len || cut = 0 then (n, None)
  else (String.sub n 0 cut, Some (int_of_string (String.sub n cut (len - cut))))

(** [fresh_for used hint] returns [hint] if unused, otherwise the first
    [base ^ k] not in [used]. *)
let fresh_for (used : t list) (hint : t) : t =
  let hint = if hint = "" || hint = "_" then "x" else hint in
  if not (List.mem hint used) then hint
  else
    let base, start = split_suffix hint in
    let rec go k =
      let cand = base ^ string_of_int k in
      if List.mem cand used then go (k + 1) else cand
    in
    go (match start with Some k -> k + 1 | None -> 1)
