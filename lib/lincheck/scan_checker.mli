(** Validator for full-range scans: every scan result must equal a
    prefix-consistent snapshot of the key space.

    The check is an interval possibility analysis over the write events of
    the history (puts, deletes, effective RMWs): for each key the reported
    value is *possible at cut [t]* iff some write of that value was invoked
    by [t] and no distinct write that started after it finished has
    completed by [t] (which would definitely supersede it). The scan passes
    iff one cut [t] makes every key's reported value — including reported
    absence — possible simultaneously:

    - [`Serializable] (the store's default [get_snap]): the cut may lie
      anywhere at or before the scan's response — the snapshot may read "in
      the past", but it must still be *some* consistent prefix, so no put
      is ever half-visible.
    - [`Linearizable] (stores opened with [snapshots = Linearizable]): the
      cut must additionally lie within the scan's own invocation window.

    Independently, snapshot timestamps must be monotone: if scan A responds
    before scan B is invoked, A's [snap_ts] must not exceed B's.

    The analysis never rejects a genuinely consistent scan (for a real cut
    [t*] the superseded-write criterion holds for the last write of each
    key), so every reported violation is a real atomicity break. *)

type violation = { scan : History.scan; reason : string }

val check :
  ?mode:[ `Serializable | `Linearizable ] -> History.t -> violation list
(** Default mode: [`Serializable]. Empty list = all scans consistent. *)

val pp_violation : violation -> string
