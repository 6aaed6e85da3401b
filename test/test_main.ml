let () =
  Alcotest.run "brdb"
    (List.concat
       [
         Test_util.suites;
         Test_crypto.suites;
         Test_storage.suites;
         Test_engine.suites;
         Test_engine2.suites;
         Test_txn.suites;
         Test_ssi.suites;
         Test_sim.suites;
         Test_consensus.suites;
         Test_raft.suites;
         Test_contracts.suites;
         Test_node.suites;
         Test_ledger.suites;
         Test_core.suites;
         Test_peer.suites;
         Test_scenarios.suites;
         Test_misc.suites;
         Test_obs.suites;
         Test_health.suites;
         Test_sysviews.suites;
         Test_snapshot.suites;
         Test_client.suites;
       ])
