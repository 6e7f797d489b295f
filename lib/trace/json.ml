type tree =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of tree list
  | Obj of (string * tree) list

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  escape_into b s;
  Buffer.contents b

(* ---- printing ---- *)

(* The shortest of %.15g/%.16g/%.17g that reads back as [f], with a
   fraction or exponent so that it parses as a [Num], not an [Int]. *)
let float_repr f =
  let s =
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f
  in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let add_string b s =
  Buffer.add_char b '"';
  escape_into b s;
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f ->
      (* inf and nan have no JSON spelling *)
      Buffer.add_string b (if Float.is_finite f then float_repr f else "null")
  | Str s -> add_string b s
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          to_buffer b v)
        kvs;
      Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 256 in
  to_buffer b t;
  Buffer.contents b

(* ---- parsing ---- *)

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then pos := !pos + l
    else fail ("expected " ^ lit)
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; incr pos
               | '\\' -> Buffer.add_char b '\\'; incr pos
               | '/' -> Buffer.add_char b '/'; incr pos
               | 'b' -> Buffer.add_char b '\b'; incr pos
               | 'f' -> Buffer.add_char b '\012'; incr pos
               | 'n' -> Buffer.add_char b '\n'; incr pos
               | 'r' -> Buffer.add_char b '\r'; incr pos
               | 't' -> Buffer.add_char b '\t'; incr pos
               | 'u' ->
                   if !pos + 4 >= n then fail "short \\u escape";
                   let code = ref 0 in
                   for k = 1 to 4 do
                     let d =
                       match s.[!pos + k] with
                       | '0' .. '9' as c -> Char.code c - Char.code '0'
                       | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                       | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                       | _ -> fail "bad \\u escape"
                     in
                     code := (!code * 16) + d
                   done;
                   (match Uchar.of_int !code with
                   | u -> Buffer.add_utf_8_uchar b u
                   | exception Invalid_argument _ ->
                       Buffer.add_utf_8_uchar b Uchar.rep);
                   pos := !pos + 5
               | _ -> fail "bad escape");
            go ()
        | c when Char.code c < 0x20 -> fail "control char in string"
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  (* An integer literal that fits is an [Int] (a monotonic-ns timestamp
     above 2^53 keeps every digit); anything else is a [Num]. *)
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    match if !integral then int_of_string_opt lit else None with
    | Some i -> Int i
    | None -> Num (float_of_string lit)
  in
  let rec value () =
    skip_ws ();
    let v =
      match peek () with
      | None -> fail "expected value"
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = string_ () in
              skip_ws ();
              expect ':';
              let v = value () in
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else begin
            let rec elements acc =
              let v = value () in
              match peek () with
              | Some ',' ->
                  incr pos;
                  elements (v :: acc)
              | Some ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (elements [])
          end
      | Some '"' -> Str (string_ ())
      | Some 't' ->
          literal "true";
          Bool true
      | Some 'f' ->
          literal "false";
          Bool false
      | Some 'n' ->
          literal "null";
          Null
      | Some ('-' | '0' .. '9') -> number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    skip_ws ();
    v
  in
  match
    let v = value () in
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "invalid JSON at offset %d: %s" at msg)

(* ---- typed readers; total, returning options ---- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Num f -> Some f
  | _ -> None

let float_member k t =
  match member k t with
  | Some Null -> Some infinity (* the printer writes inf as null *)
  | Some v -> to_float v
  | None -> None

let int_member k t = match member k t with Some (Int i) -> Some i | _ -> None
let bool_member k t = match member k t with Some (Bool v) -> Some v | _ -> None

let string_member k t =
  match member k t with Some (Str s) -> Some s | _ -> None

let list_member k t = match member k t with Some (Arr l) -> Some l | _ -> None
