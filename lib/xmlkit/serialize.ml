(* XML serialization: escaping, compact and indented rendering, and a
   byte-counting sink so the experiments can report document sizes
   without materializing strings. *)

let entity = function
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '&' -> "&amp;"
  | '\'' -> "&apos;"
  | '"' -> "&quot;"
  | _ -> ""

let needs_escape c = String.length (entity c) > 0

(* Copies runs of plain characters in one step each. *)
let escape_into buf s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let e = entity (String.unsafe_get s i) in
    if String.length e > 0 then begin
      Buffer.add_substring buf s !start (i - !start);
      Buffer.add_string buf e;
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start)

let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 16) in
    escape_into buf s;
    Buffer.contents buf
  end

let rec write_node buf = function
  | Xml.Text s -> escape_into buf s
  | Xml.Element e -> write_element buf e

and write_element buf (e : Xml.element) =
  Buffer.add_char buf '<';
  Buffer.add_string buf e.tag;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      escape_into buf v;
      Buffer.add_char buf '"')
    e.attrs;
  match e.children with
  | [] -> Buffer.add_string buf "/>"
  | children ->
      Buffer.add_char buf '>';
      List.iter (write_node buf) children;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>'

let to_string doc =
  let buf = Buffer.create 1024 in
  write_element buf (Xml.root doc);
  Buffer.contents buf

let rec write_indented buf level (n : Xml.node) =
  let pad () =
    for _ = 1 to level * 2 do
      Buffer.add_char buf ' '
    done
  in
  match n with
  | Xml.Text s ->
      pad ();
      escape_into buf s;
      Buffer.add_char buf '\n'
  | Xml.Element e -> (
      pad ();
      Buffer.add_char buf '<';
      Buffer.add_string buf e.tag;
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          escape_into buf v;
          Buffer.add_char buf '"')
        e.attrs;
      match e.children with
      | [] -> Buffer.add_string buf "/>\n"
      | [ Xml.Text s ] ->
          Buffer.add_char buf '>';
          escape_into buf s;
          Buffer.add_string buf "</";
          Buffer.add_string buf e.tag;
          Buffer.add_string buf ">\n"
      | children ->
          Buffer.add_string buf ">\n";
          List.iter (write_indented buf (level + 1)) children;
          pad ();
          Buffer.add_string buf "</";
          Buffer.add_string buf e.tag;
          Buffer.add_string buf ">\n")

let to_pretty_string doc =
  let buf = Buffer.create 1024 in
  write_indented buf 0 (Xml.Element (Xml.root doc));
  Buffer.contents buf

let byte_size doc = String.length (to_string doc)
