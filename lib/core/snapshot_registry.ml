type entry = { ts : int; expires : float option }
type handle = entry
type t = { mutex : Mutex.t; mutable entries : entry list }

let create () = { mutex = Mutex.create (); entries = [] }

let with_lock t f = Mutex.protect t.mutex f

let expired now entry =
  match entry.expires with Some e -> now >= e | None -> false

let entry ?ttl ~now ts = { ts; expires = Option.map (fun d -> now +. d) ttl }

let install t ?ttl ~now ts =
  let entry = entry ?ttl ~now ts in
  with_lock t (fun () -> t.entries <- entry :: t.entries);
  entry

let install_chosen t ?ttl ~now choose =
  with_lock t (fun () ->
      let ts = choose () in
      if ts <= 0 then (ts, None)
      else begin
        let entry = entry ?ttl ~now ts in
        t.entries <- entry :: t.entries;
        (ts, Some entry)
      end)

(* Unlinked at once, not left for [live_timestamps] to prune: a store
   that scans but never flushes or compacts would otherwise keep one dead
   entry per released snapshot for ever. The list holds only pinned
   snapshots, so the walk is short. *)
let remove t handle =
  with_lock t (fun () ->
      t.entries <- List.filter (fun e -> e != handle) t.entries)

let prune_locked t now =
  t.entries <- List.filter (fun e -> not (expired now e)) t.entries
[@@requires_lock registry]

let live_timestamps t ~now =
  with_lock t (fun () ->
      prune_locked t now;
      List.map (fun e -> e.ts) t.entries |> List.sort Int.compare)

let min_timestamp t ~now =
  match live_timestamps t ~now with [] -> None | ts :: _ -> Some ts

let cardinal t = with_lock t (fun () -> List.length t.entries)
