(* The cLSM store ({!Store}) plus the bulk reads {!Store_sig.Scans}
   derives from its primitives. *)

include Store
include Store_sig.Scans (Store)
