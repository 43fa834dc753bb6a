let () =
  Alcotest.run "clsm"
    (Test_util.suites @ Test_primitives.suites @ Test_skiplist.suites
     @ Test_sstable.suites @ Test_cache.suites @ Test_wal.suites @ Test_lsm.suites @ Test_version.suites @ Test_core.suites @ Test_features.suites @ Test_extensions.suites @ Test_db_model.suites @ Test_edge_cases.suites @ Test_misc.suites @ Test_fault.suites @ Test_selfheal.suites @ Test_baselines.suites @ Test_workload.suites @ Test_sim.suites @ Test_maintenance.suites @ Test_lincheck_unit.suites @ Test_sharded.suites @ Test_alloc.suites)
