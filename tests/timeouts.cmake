# Per-test CTest properties for gtest cases found by gtest_discover_tests.
# Listed after the discovered-test lists in TEST_INCLUDE_FILES, so every
# test named here already exists when this file runs.
#
# A run that can fail by never quiescing gets a TIMEOUT, so that failure
# shows as a failed test instead of a stalled suite.
set_tests_properties(
  CoordinatorFailoverHybrid.MasterDrainsItsPoolWhenItsLastSlaveDies
  PROPERTIES TIMEOUT 60)
