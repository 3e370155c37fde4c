(** A minimal, dependency-free JSON tree: an emitter and a parser.

    The telemetry layer renders Chrome trace files and machine-readable
    performance reports ([--trace], [--profile], [bench --json]) through
    this module, and the test suite parses those artifacts back to
    validate them — so both directions live here rather than behind an
    external library the toolchain does not ship.

    The emitter always produces valid JSON (strings are escaped, non-finite
    floats are emitted as [null]); the parser accepts standard JSON
    (RFC 8259), decoding [\uXXXX] escapes to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- emission ---------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

(** Emit [j] into [buf]; [indent < 0] means compact (one line). *)
let rec emit buf ~indent ~level (j : t) : unit =
  let pad l =
    if indent >= 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (indent * l) ' ')
    end
  in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_nan f || Float.is_integer (f /. 0.) then
        (* NaN and infinities are not JSON; degrade to null *)
        Buffer.add_string buf "null"
      else Buffer.add_string buf (float_to_string f)
  | String s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          pad (level + 1);
          emit buf ~indent ~level:(level + 1) item)
        items;
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          pad (level + 1);
          escape_to buf k;
          Buffer.add_string buf (if indent >= 0 then ": " else ":");
          emit buf ~indent ~level:(level + 1) v)
        fields;
      pad level;
      Buffer.add_char buf '}'

let to_string ?(compact = false) (j : t) : string =
  let buf = Buffer.create 1024 in
  emit buf ~indent:(if compact then -1 else 2) ~level:0 j;
  Buffer.contents buf

(** Write [j] to [path] (pretty-printed, trailing newline), atomically
    enough for build artifacts: errors surface as [Sys_error]. *)
let write_file (path : string) (j : t) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string j);
      output_char oc '\n')

(* --- parsing ----------------------------------------------------------- *)

exception Parse_error of int * string
(** Byte offset and message. *)

let parse_fail pos fmt =
  Format.kasprintf (fun m -> raise (Parse_error (pos, m))) fmt

(* The parser scans [src] by index: it looks at bytes in place and
   allocates only the values it returns.  A request line carrying a whole
   source text is decoded in one copy of that text. *)
type parser_state = { src : string; mutable pos : int }

let at_end st = st.pos >= String.length st.src

(** The byte at the cursor; ['\000'] at the end of input (callers that
    must tell the two apart test {!at_end}). *)
let cur st = if at_end st then '\000' else String.unsafe_get st.src st.pos

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let n = String.length st.src in
  while
    st.pos < n
    && match String.unsafe_get st.src st.pos with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    advance st
  done

let expect st c =
  if at_end st then parse_fail st.pos "expected %c, found end of input" c
  else if cur st = c then advance st
  else parse_fail st.pos "expected %c, found %c" c (cur st)

let parse_literal st word (v : t) : t =
  let n = String.length word in
  let rec same i =
    i = n || (String.unsafe_get st.src (st.pos + i) = word.[i] && same (i + 1))
  in
  if st.pos + n <= String.length st.src && same 0 then begin
    st.pos <- st.pos + n;
    v
  end
  else parse_fail st.pos "invalid literal (expected %s)" word

let hex_digit pos c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> parse_fail pos "invalid hex digit %c" c

(** An upper bound on the decoded length of the string body starting at
    [i]: its bytes up to the closing quote (or the end of input), less
    one per escape ([\uXXXX] decodes to at most three bytes, so its six
    count as three).  The decoder takes the same steps, so it writes at
    most that many bytes before it succeeds or fails. *)
let decoded_bound (src : string) (i : int) : int =
  let n = String.length src in
  let rec go i len =
    if i >= n then len
    else
      match String.unsafe_get src i with
      | '"' -> len
      | '\\' ->
          if i + 1 < n && String.unsafe_get src (i + 1) = 'u' then
            go (i + 6) (len + 3)
          else go (i + 2) (len + 1)
      | _ -> go (i + 1) (len + 1)
  in
  go i 0

let parse_string_body st : string =
  expect st '"';
  let src = st.src in
  let n = String.length src in
  let buf = Bytes.create (decoded_bound src st.pos) in
  let len = ref 0 in
  (* copy the run of plain bytes from the cursor *)
  let run () =
    let start = st.pos in
    while
      st.pos < n
      && match String.unsafe_get src st.pos with
         | '"' | '\\' -> false
         | c -> Char.code c >= 0x20
    do
      advance st
    done;
    Bytes.blit_string src start buf !len (st.pos - start);
    len := !len + (st.pos - start)
  in
  let add c =
    Bytes.unsafe_set buf !len c;
    incr len
  in
  let rec go () =
    run ();
    if at_end st then parse_fail st.pos "unterminated string";
    match cur st with
    | '"' -> advance st
    | '\\' ->
        advance st;
        if at_end st then parse_fail st.pos "unterminated escape";
        let c = cur st in
        advance st;
        (match c with
        | '"' -> add '"'
        | '\\' -> add '\\'
        | '/' -> add '/'
        | 'n' -> add '\n'
        | 't' -> add '\t'
        | 'r' -> add '\r'
        | 'b' -> add '\b'
        | 'f' -> add '\012'
        | 'u' ->
            if st.pos + 4 > n then parse_fail st.pos "truncated \\u escape";
            let code =
              let d i = hex_digit st.pos src.[st.pos + i] in
              (d 0 * 4096) + (d 1 * 256) + (d 2 * 16) + d 3
            in
            st.pos <- st.pos + 4;
            let u =
              if Uchar.is_valid code then Uchar.of_int code else Uchar.rep
            in
            len := !len + Bytes.set_utf_8_uchar buf !len u
        | c -> parse_fail st.pos "invalid escape \\%c" c);
        go ()
    | _ -> parse_fail st.pos "unescaped control character in string"
  in
  go ();
  if !len = Bytes.length buf then Bytes.unsafe_to_string buf
  else Bytes.sub_string buf 0 !len

let parse_number st : t =
  let start = st.pos in
  let is_float = ref false in
  let n = String.length st.src in
  let digits () =
    while st.pos < n && cur st >= '0' && cur st <= '9' do
      advance st
    done
  in
  if (not (at_end st)) && cur st = '-' then advance st;
  digits ();
  if (not (at_end st)) && cur st = '.' then begin
    is_float := true;
    advance st;
    digits ()
  end;
  if (not (at_end st)) && (cur st = 'e' || cur st = 'E') then begin
    is_float := true;
    advance st;
    if (not (at_end st)) && (cur st = '+' || cur st = '-') then advance st;
    digits ()
  end;
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> parse_fail start "invalid number %s" text
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        (* out of int range: keep it as a float *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> parse_fail start "invalid number %s" text)

(** Is the next byte [c]?  (Never at the end of input.) *)
let next_is st c = (not (at_end st)) && cur st = c

let rec parse_value st : t =
  skip_ws st;
  if at_end st then parse_fail st.pos "unexpected end of input";
  match cur st with
  | 'n' -> parse_literal st "null" Null
  | 't' -> parse_literal st "true" (Bool true)
  | 'f' -> parse_literal st "false" (Bool false)
  | '"' -> String (parse_string_body st)
  | '-' | '0' .. '9' -> parse_number st
  | '[' ->
      advance st;
      skip_ws st;
      if next_is st ']' then begin
        advance st;
        List []
      end
      else
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          if next_is st ',' then begin
            advance st;
            items (v :: acc)
          end
          else if next_is st ']' then begin
            advance st;
            List (List.rev (v :: acc))
          end
          else parse_fail st.pos "expected , or ] in array"
        in
        items []
  | '{' ->
      advance st;
      skip_ws st;
      if next_is st '}' then begin
        advance st;
        Obj []
      end
      else
        let field () =
          skip_ws st;
          let k = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws st;
          if next_is st ',' then begin
            advance st;
            fields (kv :: acc)
          end
          else if next_is st '}' then begin
            advance st;
            Obj (List.rev (kv :: acc))
          end
          else parse_fail st.pos "expected , or } in object"
        in
        fields []
  | c -> parse_fail st.pos "unexpected character %c" c

(** Parse a complete JSON document (trailing whitespace allowed). *)
let parse (src : string) : (t, string) result =
  let st = { src; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length src then
        Error (Fmt.str "offset %d: trailing garbage after JSON value" st.pos)
      else Ok v
  | exception Parse_error (pos, msg) -> Error (Fmt.str "offset %d: %s" pos msg)

(* --- accessors (for tests and tooling) --------------------------------- *)

let member (k : string) : t -> t option = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_list : t -> t list option = function List l -> Some l | _ -> None

let to_float : t -> float option = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int : t -> int option = function Int i -> Some i | _ -> None

let to_str : t -> string option = function String s -> Some s | _ -> None
