type t =
  | Flush
  | Repair
  | Compact of { src_level : int; target_level : int }
  | Scrub

let pp ppf = function
  | Flush -> Format.fprintf ppf "flush"
  | Repair -> Format.fprintf ppf "repair"
  | Compact { src_level; target_level } ->
      Format.fprintf ppf "compact(L%d->L%d)" src_level target_level
  | Scrub -> Format.fprintf ppf "scrub"
