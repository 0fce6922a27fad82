(* The XML tagger (paper Sec. 3.3).

   Merges the sorted tuple streams of a plan's fragments into one stream
   (under the view tree's global sort-attribute order), re-nests the
   tuples and emits tags.  The pass is single-scan: memory is bounded by
   the view-tree depth times one retained row per open element, never by
   the database size.

   Each tuple denotes a path of node instances: its L columns spell the
   Skolem-function-index prefix, its variable columns carry the Skolem
   term values.  The tagger keeps a stack of open elements; a tuple
   closes elements up to the deepest ancestor it shares with the stack
   and opens the remainder of its path.  Each stream's tag program is
   compiled once per run: column indices of its levels and key
   variables, and per member node a template of text contents and
   reduction-fused children ordered by sibling index.  An open element
   is (template, opening row, position); its pending items are flushed
   by advancing the position when a later sibling arrives or the
   element closes, so the per-tuple loop only reads tuple columns.

   Streams are consumed through pull cursors and merged with a binary
   min-heap keyed by [compare_heads] (ties broken by stream position, so
   the merge order is identical to a left-to-right scan): selecting the
   next tuple costs O(log streams) comparator calls instead of a linear
   scan over every stream head per tuple. *)

module R = Relational

type sink = {
  on_open : string -> unit;
  on_text : string -> unit;
  on_close : string -> unit;
}

(* --- compiled tag programs ---------------------------------------------- *)

(* A pending template: the text contents and reduction-fused children of
   one node as its stream delivers them, sorted by sibling index.  It is
   compiled once per stream; an open element walks it with a position
   while reading text columns from the row that opened it. *)
type item = { index : int; what : what }

and what =
  | Text of string (* a constant, or an absent column (NULL) *)
  | Col of int (* a text column of the row *)
  | Fused of string * int * item array (* tag, node, its own template *)

type open_elem = {
  o_node : int;
  o_tmpl : item array;
  o_row : R.Tuple.t; (* the row [o_tmpl]'s columns read *)
  mutable o_pos : int; (* o_tmpl.(0 .. o_pos-1) are emitted *)
  o_keys : int array; (* identity: key columns of [o_key_row] *)
  o_key_row : R.Tuple.t;
}

let no_elem =
  { o_node = -1; o_tmpl = [||]; o_row = [||]; o_pos = 0; o_keys = [||];
    o_key_row = [||] }

let value_text v = if R.Value.is_null v then "" else R.Value.to_string v
let column (t : R.Tuple.t) i = if i < 0 then R.Value.Null else t.(i)

(* Emit one pending item; a fused child brings everything inside it. *)
let rec emit sink (row : R.Tuple.t) item =
  match item.what with
  | Text s -> sink.on_text s
  | Col i -> sink.on_text (value_text row.(i))
  | Fused (tag, _, sub) ->
      sink.on_open tag;
      for k = 0 to Array.length sub - 1 do
        emit sink row sub.(k)
      done;
      sink.on_close tag

(* Emit [e]'s pending items with index < limit. *)
let flush_below sink e limit =
  while e.o_pos < Array.length e.o_tmpl && e.o_tmpl.(e.o_pos).index < limit do
    emit sink e.o_row e.o_tmpl.(e.o_pos);
    e.o_pos <- e.o_pos + 1
  done

(* --- streams ------------------------------------------------------------ *)

type stream_state = {
  sid : int; (* position in the stream list; merge tie-break *)
  cursor : R.Cursor.t;
  mutable head : R.Tuple.t option;
  level_idx : int array; (* per level 1..max: column index or -1 *)
  key_idx : int array array; (* per node: key-variable columns, -1 = absent *)
  tmpl : item array array; (* per node: template; [||] for non-members *)
}

let advance st = st.head <- R.Cursor.next st.cursor

(* Last component of a node's Skolem-function index, with a descriptive
   error instead of an anonymous failure on an empty index. *)
let last_sfi_component (n : View_tree.node) =
  match List.rev n.View_tree.sfi with
  | x :: _ -> x
  | [] ->
      invalid_arg
        (Printf.sprintf
           "Tagger: node %d (<%s>) has an empty Skolem-function index"
           n.View_tree.id n.View_tree.tag)

let max_level tree =
  Array.fold_left (fun m n -> max m (View_tree.level n)) 0 tree.View_tree.nodes

(* [children.(parent+1).(comp)]: the child of [parent] (-1: the document
   root) whose last SFI component is [comp], or -1. *)
let child_table tree =
  let nodes = tree.View_tree.nodes in
  let width =
    1 + Array.fold_left (fun m n -> max m (last_sfi_component n)) 0 nodes
  in
  let t = Array.init (Array.length nodes + 1) (fun _ -> Array.make width (-1)) in
  Array.iter
    (fun (n : View_tree.node) ->
      let parent = match n.View_tree.parent with Some p -> p | None -> -1 in
      t.(parent + 1).(last_sfi_component n) <- n.View_tree.id)
    nodes;
  t

let child children parent comp =
  let row = children.(parent + 1) in
  if comp < 0 || comp >= Array.length row then -1 else row.(comp)

(* Resolve a stream's columns once: level and key-variable columns, and
   the template of every member node.  Children follow their parents in
   [tree.nodes], so walking members by decreasing id compiles each fused
   child's template before its parent's. *)
let compile_stream tree sid (desc : Sql_gen.stream) (cur : R.Cursor.t) =
  let cols = desc.Sql_gen.cols in
  if R.Cursor.arity cur <> Array.length cols then
    invalid_arg "Tagger: cursor arity does not match stream descriptor";
  let find_col k =
    let rec go i =
      if i >= Array.length cols then -1 else if cols.(i) = k then i
      else go (i + 1)
    in
    go 0
  in
  let var_col v = find_col (Sql_gen.Var_col v) in
  let tmpl = Array.make (View_tree.node_count tree) [||] in
  List.iter
    (fun id ->
      let n = View_tree.node tree id in
      let text (index, c) =
        let what =
          match c with
          | View_tree.Content_const v -> Text (value_text v)
          | View_tree.Content_var v ->
              let i = var_col v in
              if i < 0 then Text "" else Col i
        in
        { index; what }
      in
      let fused =
        match Reduce.group_of desc.Sql_gen.groups id with
        | exception Not_found -> []
        | g ->
            List.map
              (fun m ->
                let mn = View_tree.node tree m in
                { index = mn.View_tree.sibling_index;
                  what = Fused (mn.View_tree.tag, m, tmpl.(m)) })
              (Reduce.fused_children tree g id)
      in
      tmpl.(id) <-
        Array.of_list
          (List.sort
             (fun a b -> compare a.index b.index)
             (List.map text n.View_tree.contents @ fused)))
    (List.sort (fun a b -> compare b a) desc.Sql_gen.fragment.Partition.members);
  let st =
    {
      sid;
      cursor = cur;
      head = None;
      level_idx =
        Array.init (max_level tree + 1) (fun j ->
            if j = 0 then -1 else find_col (Sql_gen.Level_col j));
      key_idx =
        Array.map
          (fun (n : View_tree.node) ->
            Array.of_list (List.map var_col n.View_tree.key_vars))
          tree.View_tree.nodes;
      tmpl;
    }
  in
  advance st;
  st

let level_value st (t : R.Tuple.t) j =
  if j >= Array.length st.level_idx then R.Value.Null
  else column t st.level_idx.(j)

(* Hierarchical merge comparator: at each level compare the L component,
   then — only when the components agree — the key variables of that path
   node.  Key variables of sibling nodes never participate, so streams
   that do not carry them (they would read NULL) cannot be mis-ordered
   against streams that do.  A tuple whose path is a prefix of another's
   sorts first (parent rows precede child rows). *)
let compare_heads children sa ta sb tb =
  let rec go parent j =
    let la = level_value sa ta j and lb = level_value sb tb j in
    match (la, lb) with
    | R.Value.Null, R.Value.Null -> 0
    | _ ->
        let c = R.Value.compare_total la lb in
        if c <> 0 then c
        else
          (* equal non-null component: same node *)
          let id =
            match la with R.Value.Int k -> child children parent k | _ -> -1
          in
          if id < 0 then 0 else keys id j sa.key_idx.(id) sb.key_idx.(id) 0
  and keys id j ka kb i =
    if i >= Array.length ka then go id (j + 1)
    else
      let c = R.Value.compare_total (column ta ka.(i)) (column tb kb.(i)) in
      if c <> 0 then c else keys id j ka kb (i + 1)
  in
  go (-1) 1

(* --- heap of stream heads ----------------------------------------------- *)

(* Binary min-heap over stream states, each holding a non-empty head.
   The order is (compare_heads, sid): on equal heads the earlier stream
   wins, exactly reproducing the order a left-to-right linear scan with
   strict [<] replacement would select. *)
module Head_heap = struct
  type t = {
    arr : stream_state array; (* arr.(0..size-1) is the heap *)
    mutable size : int;
    less : stream_state -> stream_state -> bool;
  }

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < h.size && h.less h.arr.(l) h.arr.(!m) then m := l;
    if r < h.size && h.less h.arr.(r) h.arr.(!m) then m := r;
    if !m <> i then begin
      let tmp = h.arr.(i) in
      h.arr.(i) <- h.arr.(!m);
      h.arr.(!m) <- tmp;
      sift_down h !m
    end

  let create less states =
    let live = Array.of_list (List.filter (fun st -> Option.is_some st.head) states) in
    let h = { arr = live; size = Array.length live; less } in
    for i = (h.size / 2) - 1 downto 0 do
      sift_down h i
    done;
    h

  (* The minimum's head changed (advanced) or emptied: restore order. *)
  let reposition_min h =
    if h.size > 0 then begin
      if Option.is_none h.arr.(0).head then begin
        h.size <- h.size - 1;
        if h.size > 0 then h.arr.(0) <- h.arr.(h.size)
      end;
      if h.size > 0 then sift_down h 0
    end
end

(* --- per-tuple processing ----------------------------------------------- *)

(* The open-element stack is stored root-first in a fixed array sized by
   the view-tree depth, with [depth] tracked incrementally; the tuple's
   node path is written into a reusable array.  Matching, closing and
   opening read the tuple's columns in place. *)
type ctx = {
  tree : View_tree.t;
  sink : sink;
  children : int array array; (* see [child_table] *)
  stack : open_elem array; (* stack.(0) is outermost; root-first *)
  mutable depth : int; (* open elements = stack.(0 .. depth-1) *)
  path : int array; (* path.(0 .. n-1): the current tuple's node ids *)
}

(* Write the node-id path denoted by a tuple (L columns until NULL or
   absent) into [ctx.path]; return its length. *)
let path_of ctx st (t : R.Tuple.t) =
  let rec go parent j n =
    if j >= Array.length st.level_idx then n
    else
      match column t st.level_idx.(j) with
      | R.Value.Int comp ->
          let id = child ctx.children parent comp in
          if id < 0 then n
          else begin
            ctx.path.(n) <- id;
            go id (j + 1) (n + 1)
          end
      | _ -> n
  in
  go (-1) 1 0

(* Does open element [e] stand for node [id]'s instance in tuple [t]? *)
let same_instance e st (t : R.Tuple.t) id =
  e.o_node = id
  &&
  let ks = st.key_idx.(id) in
  let rec go i =
    i >= Array.length ks
    || R.Value.equal (column e.o_key_row e.o_keys.(i)) (column t ks.(i))
       && go (i + 1)
  in
  go 0

let close_to_depth ctx depth =
  while ctx.depth > depth do
    let e = ctx.stack.(ctx.depth - 1) in
    flush_below ctx.sink e max_int;
    ctx.sink.on_close (View_tree.node ctx.tree e.o_node).View_tree.tag;
    ctx.stack.(ctx.depth - 1) <- no_elem;
    ctx.depth <- ctx.depth - 1
  done

let push ctx st t id tag tmpl row =
  ctx.sink.on_open tag;
  ctx.stack.(ctx.depth) <-
    { o_node = id; o_tmpl = tmpl; o_row = row; o_pos = 0;
      o_keys = st.key_idx.(id); o_key_row = t };
  ctx.depth <- ctx.depth + 1

(* Open node [id] under the current stack top.  The parent's earlier
   siblings are flushed first; if the template head is then [id] as a
   fused child (its data rode in on the parent's row), the element
   adopts that sub-template and row.  Sibling indices are unique within
   a parent, so the head is the only place it can be. *)
let open_element ctx st t id =
  let n = View_tree.node ctx.tree id in
  let tag = n.View_tree.tag in
  if ctx.depth >= Array.length ctx.stack then
    invalid_arg "Tagger: tuple path deeper than the view tree";
  if ctx.depth = 0 then push ctx st t id tag st.tmpl.(id) t
  else
    let p = ctx.stack.(ctx.depth - 1) in
    flush_below ctx.sink p n.View_tree.sibling_index;
    let head =
      if p.o_pos < Array.length p.o_tmpl then p.o_tmpl.(p.o_pos).what
      else Text ""
    in
    match head with
    | Fused (_, f, sub) when f = id ->
        p.o_pos <- p.o_pos + 1;
        push ctx st t id tag sub p.o_row
    | _ -> push ctx st t id tag st.tmpl.(id) t

let process_tuple ctx st (t : R.Tuple.t) =
  let n = path_of ctx st t in
  (* the depth up to which the stack matches the path *)
  let d = ref 0 in
  while
    !d < ctx.depth && !d < n && same_instance ctx.stack.(!d) st t ctx.path.(!d)
  do
    incr d
  done;
  close_to_depth ctx !d;
  for i = !d to n - 1 do
    open_element ctx st t ctx.path.(i)
  done

(* --- driver -------------------------------------------------------------- *)

let tag_cursors tree (streams : (Sql_gen.stream * R.Cursor.t) list)
    (sink : sink) : unit =
 Obs.Span.with_span "middleware.tag" (fun () ->
  let opens = ref 0 and texts = ref 0 in
  let sink =
    if Obs.Span.tracing () then
      {
        sink with
        on_open =
          (fun t ->
            incr opens;
            sink.on_open t);
        on_text =
          (fun s ->
            incr texts;
            sink.on_text s);
      }
    else sink
  in
  let states = List.mapi (fun i (d, c) -> compile_stream tree i d c) streams in
  let tuples_in = ref 0 in
  let ctx =
    { tree; sink; children = child_table tree; depth = 0;
      stack = Array.make (max_level tree + 1) no_elem;
      path = Array.make (max_level tree + 1) 0 }
  in
  let less a b =
    match (a.head, b.head) with
    | Some ta, Some tb ->
        let c = compare_heads ctx.children a ta b tb in
        if c <> 0 then c < 0 else a.sid < b.sid
    | _ -> invalid_arg "Tagger: empty stream in merge heap"
  in
  let heap = Head_heap.create less states in
  sink.on_open tree.View_tree.root_tag;
  while heap.Head_heap.size > 0 do
    let st = heap.Head_heap.arr.(0) in
    match st.head with
    | None -> invalid_arg "Tagger: empty stream in merge heap"
    | Some t ->
        advance st;
        Head_heap.reposition_min heap;
        incr tuples_in;
        process_tuple ctx st t
  done;
  close_to_depth ctx 0;
  sink.on_close tree.View_tree.root_tag;
  if Obs.Span.tracing () then begin
    Obs.Span.add_list
      [
        Obs.Attr.int "streams" (List.length streams);
        Obs.Attr.int "tuples" !tuples_in;
        Obs.Attr.int "elements" !opens;
        Obs.Attr.int "texts" !texts;
        Obs.Attr.int "work" !opens;
      ];
    Obs.Metrics.incr ~by:!opens "tag.elements";
    Obs.Metrics.observe "tag.tuples" (float_of_int !tuples_in)
  end)

let tag tree (streams : (Sql_gen.stream * R.Relation.t) list) (sink : sink) :
    unit =
  tag_cursors tree
    (List.map (fun (d, r) -> (d, R.Cursor.of_relation r)) streams)
    sink

(* Sink building an in-memory document (tests, validation). *)
let document_sink () =
  let stack : (string * Xmlkit.Xml.node list ref) list ref = ref [] in
  let result = ref None in
  let sink =
    {
      on_open = (fun tag -> stack := (tag, ref []) :: !stack);
      on_text =
        (fun s ->
          match !stack with
          | (_, children) :: _ ->
              if s <> "" then children := Xmlkit.Xml.Text s :: !children
          | [] -> invalid_arg "Tagger: text outside any element");
      on_close =
        (fun tag ->
          match !stack with
          | (tag', children) :: rest ->
              if tag <> tag' then
                invalid_arg
                  (Printf.sprintf "Tagger: closing <%s>, open is <%s>" tag tag');
              let el = Xmlkit.Xml.element tag (List.rev !children) in
              (match rest with
              | (_, pchildren) :: _ ->
                  pchildren := Xmlkit.Xml.Element el :: !pchildren;
                  stack := rest
              | [] ->
                  result := Some el;
                  stack := [])
          | [] -> invalid_arg "Tagger: close without open");
    }
  in
  let get () =
    match !result with
    | Some el -> Xmlkit.Xml.document el
    | None -> invalid_arg "Tagger: no document produced"
  in
  (sink, get)

let to_document tree streams : Xmlkit.Xml.t =
  let sink, get = document_sink () in
  tag tree streams sink;
  get ()

let to_document_cursors tree streams : Xmlkit.Xml.t =
  let sink, get = document_sink () in
  tag_cursors tree streams sink;
  get ()

(* Sink serializing directly to a buffer: the constant-space path. *)
let buffer_sink buf =
  {
    on_open =
      (fun tag ->
        Buffer.add_char buf '<';
        Buffer.add_string buf tag;
        Buffer.add_char buf '>');
    on_text = (fun s -> Xmlkit.Serialize.escape_into buf s);
    on_close =
      (fun tag ->
        Buffer.add_string buf "</";
        Buffer.add_string buf tag;
        Buffer.add_char buf '>');
  }

let to_string tree streams : string =
  let buf = Buffer.create 4096 in
  tag tree streams (buffer_sink buf);
  Buffer.contents buf

let to_string_cursors tree streams : string =
  let buf = Buffer.create 4096 in
  tag_cursors tree streams (buffer_sink buf);
  Buffer.contents buf

(* Sink writing straight to a channel: XML leaves the process as it is
   produced, without ever holding the whole document in memory. *)
let channel_sink oc =
  {
    on_open =
      (fun tag ->
        output_char oc '<';
        output_string oc tag;
        output_char oc '>');
    on_text = (fun s -> output_string oc (Xmlkit.Serialize.escape s));
    on_close =
      (fun tag ->
        output_string oc "</";
        output_string oc tag;
        output_char oc '>');
  }

let to_channel tree streams oc : unit =
  tag_cursors tree streams (channel_sink oc)
