module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module type S = sig
  type key
  type 'v t

  val create : ?max_height:int -> ?seed:int -> unit -> 'v t
  val insert : 'v t -> key -> 'v -> bool
  val find : 'v t -> key -> 'v option
  val find_le : 'v t -> key -> (key * 'v) option
  val find_ge : 'v t -> key -> (key * 'v) option
  val is_empty : 'v t -> bool
  val length : 'v t -> int
  val iter : (key -> 'v -> unit) -> 'v t -> unit
  val fold : (key -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
  val to_list : 'v t -> (key * 'v) list

  module Cursor : sig
    type 'v cursor

    val make : 'v t -> 'v cursor
    val seek_first : 'v cursor -> unit
    val seek : 'v cursor -> key -> unit
    val valid : 'v cursor -> bool
    val key : 'v cursor -> key
    val value : 'v cursor -> 'v
    val next : 'v cursor -> unit
  end

  module Raw : sig
    type 'v location

    val locate : 'v t -> key -> 'v location
    val prev_binding : 'v location -> (key * 'v) option
    val succ_binding : 'v location -> (key * 'v) option
    val try_insert : 'v t -> 'v location -> key -> 'v -> bool
  end
end

module Make (Key : ORDERED) = struct
  type key = Key.t

  type 'v node = { key : key; value : 'v; next : 'v succ Atomic.t array }
  and 'v succ = Nil | Next of 'v node

  type 'v t = {
    head : 'v succ Atomic.t array;
    max_height : int;
    height : int Atomic.t;
    rand : int Atomic.t;
  }

  let create ?(max_height = 20) ?(seed = 0x1d872b41) () =
    if max_height < 1 then invalid_arg "Skiplist.create";
    {
      head = Array.init max_height (fun _ -> Atomic.make Nil);
      max_height;
      height = Atomic.make 1;
      rand = Atomic.make seed;
    }

  (* Geometric tower height with branching factor 4 (LevelDB's choice). *)
  let random_height t =
    let r =
      Clsm_util.Hashing.mix64 (Atomic.fetch_and_add t.rand 0x3504f333f9de642)
    in
    let rec go h r =
      if h >= t.max_height || r land 3 <> 0 then h else go (h + 1) (r lsr 2)
    in
    go 1 (r lsr 3)

  let rec bump_height t h =
    let cur = Atomic.get t.height in
    if cur >= h then ()
    else if Atomic.compare_and_set t.height cur h then ()
    else bump_height t h

  (* Walk one level. [cell] is the link field of [pred] at [level] (or the
     head link). Returns the last (pred, cell) with pred.key < key and the
     successor value stopped at. *)
  let rec walk_level key level pred cell =
    match Atomic.get cell with
    | Nil -> (pred, cell, Nil)
    | Next n as s ->
        if Key.compare n.key key < 0 then
          walk_level key level (Some n) n.next.(level)
        else (pred, cell, s)

  let cell_of t level pred =
    match pred with None -> t.head.(level) | Some n -> n.next.(level)

  (* Descend from the top, returning the bottom-level (pred, cell, succ). *)
  let locate_bottom t key =
    let top = Atomic.get t.height - 1 in
    let rec go level pred =
      let pred', cell, succ = walk_level key level pred (cell_of t level pred) in
      if level = 0 then (pred', cell, succ) else go (level - 1) pred'
    in
    go top None

  (* Descend from the top but stop at [level], for relinking upper levels
     after a CAS failure. *)
  let locate_at_level t key level =
    let top = max (Atomic.get t.height - 1) level in
    let rec go l pred =
      let pred', cell, succ = walk_level key l pred (cell_of t l pred) in
      if l = level then (cell, succ) else go (l - 1) pred'
    in
    go top None

  (* Link [node] at levels 1..h-1. Each level is published with a CAS; on
     failure the level is re-located and retried. Correctness only needs the
     bottom level, which is already linked. *)
  let link_upper t node h =
    for level = 1 to h - 1 do
      let rec link () =
        let cell, succ = locate_at_level t node.key level in
        Atomic.set node.next.(level) succ;
        if not (Atomic.compare_and_set cell succ (Next node)) then link ()
      in
      link ()
    done

  let insert t key value =
    let h = random_height t in
    bump_height t h;
    let rec attempt () =
      let preds = Array.make h None in
      let cells = Array.make h t.head.(0) in
      let succs = Array.make h Nil in
      let top = max (Atomic.get t.height - 1) (h - 1) in
      let rec descend level pred =
        let pred', cell, succ =
          walk_level key level pred (cell_of t level pred)
        in
        if level < h then begin
          preds.(level) <- pred';
          cells.(level) <- cell;
          succs.(level) <- succ
        end;
        if level = 0 then (cell, succ) else descend (level - 1) pred'
      in
      let bottom_cell, bottom_succ = descend top None in
      match bottom_succ with
      | Next n when Key.compare n.key key = 0 -> false (* duplicate *)
      | _ ->
          let node =
            { key; value; next = Array.init h (fun l -> Atomic.make succs.(l)) }
          in
          if Atomic.compare_and_set bottom_cell bottom_succ (Next node) then begin
            link_upper t node h;
            true
          end
          else attempt ()
    in
    attempt ()

  let find t key =
    let _, _, succ = locate_bottom t key in
    match succ with
    | Next n when Key.compare n.key key = 0 -> Some n.value
    | Next _ | Nil -> None

  (* The last node with key <= [key], as the link that reached it ([Nil]
     when there is none). Moves right while the next key is <= [key] and
     down otherwise, holding links already in the list, so the descent
     allocates nothing. *)
  let rec last_le t key level (pred : 'v succ) =
    let cell = match pred with Nil -> t.head.(level) | Next p -> p.next.(level) in
    match Atomic.get cell with
    | Next n as s when Key.compare n.key key <= 0 -> last_le t key level s
    | Next _ | Nil -> if level = 0 then pred else last_le t key (level - 1) pred

  let find_le t key =
    match last_le t key (Atomic.get t.height - 1) Nil with
    | Nil -> None
    | Next n -> Some (n.key, n.value)

  let find_ge t key =
    let _, _, succ = locate_bottom t key in
    match succ with Next n -> Some (n.key, n.value) | Nil -> None

  let is_empty t = Atomic.get t.head.(0) = Nil

  let fold f t acc =
    let rec go cell acc =
      match Atomic.get cell with
      | Nil -> acc
      | Next n -> go n.next.(0) (f n.key n.value acc)
    in
    go t.head.(0) acc

  let length t = fold (fun _ _ acc -> acc + 1) t 0
  let iter f t = fold (fun k v () -> f k v) t ()
  let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

  module Cursor = struct
    type 'v pos = Unpositioned | At of 'v node | Exhausted
    type 'v cursor = { sl : 'v t; mutable pos : 'v pos }

    let make sl = { sl; pos = Unpositioned }

    let of_succ = function Nil -> Exhausted | Next n -> At n

    let seek_first c = c.pos <- of_succ (Atomic.get c.sl.head.(0))

    let seek c key =
      let _, _, succ = locate_bottom c.sl key in
      c.pos <- of_succ succ

    let valid c = match c.pos with At _ -> true | Unpositioned | Exhausted -> false

    let key c =
      match c.pos with
      | At n -> n.key
      | Unpositioned | Exhausted -> invalid_arg "Skiplist.Cursor.key"

    let value c =
      match c.pos with
      | At n -> n.value
      | Unpositioned | Exhausted -> invalid_arg "Skiplist.Cursor.value"

    let next c =
      match c.pos with
      | At n -> c.pos <- of_succ (Atomic.get n.next.(0))
      | Unpositioned | Exhausted -> ()
  end

  module Raw = struct
    type 'v location = {
      loc_prev : 'v node option;
      loc_cell : 'v succ Atomic.t;
      loc_succ : 'v succ;
    }

    (* The predecessor is the greatest node <= key (Algorithm 3 line 5
       locates max (k', ts') <= (k, inf)), so an exact match becomes the
       predecessor rather than the successor. *)
    let locate t key =
      let pred, cell, succ = locate_bottom t key in
      match succ with
      | Next n when Key.compare n.key key = 0 ->
          {
            loc_prev = Some n;
            loc_cell = n.next.(0);
            loc_succ = Atomic.get n.next.(0);
          }
      | Next _ | Nil -> { loc_prev = pred; loc_cell = cell; loc_succ = succ }

    let prev_binding loc =
      match loc.loc_prev with None -> None | Some n -> Some (n.key, n.value)

    let succ_binding loc =
      match loc.loc_succ with Nil -> None | Next n -> Some (n.key, n.value)

    let try_insert t loc key value =
      (match loc.loc_prev with
      | Some p -> assert (Key.compare p.key key < 0)
      | None -> ());
      (match loc.loc_succ with
      | Next n -> assert (Key.compare n.key key > 0)
      | Nil -> ());
      let h = random_height t in
      bump_height t h;
      let node =
        { key; value; next = Array.init h (fun _ -> Atomic.make loc.loc_succ) }
      in
      if Atomic.compare_and_set loc.loc_cell loc.loc_succ (Next node) then begin
        link_upper t node h;
        true
      end
      else false
  end
end
