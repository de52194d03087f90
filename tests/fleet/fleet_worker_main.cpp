// Helper binary for the fleet process tests: one real `serve` worker over
// the suite's shared tiny circuit, speaking the exact contract
// ProcessSupervisor expects — `serving on <host>:<port>` on stdout when
// ready, graceful drain on SIGTERM. Lives in tests/ (not tools/) because
// the ThreadSanitizer CI job builds with EFFITEST_BUILD_TOOLS=OFF and the
// fleet suite still needs a killable worker process.

#include <iostream>

#include "fleet_test_common.hpp"
#include "net/serve.hpp"

int main() {
  using namespace effitest;
  net::ServeOptions options;
  options.workers = 2;
  net::TuneServeLoop loop(fleet_test::holder().service, options);
  loop.start();
  loop.drain_on_signals();
  // std::endl, not '\n': the banner must cross the supervisor's pipe now,
  // not sit in a stdio buffer until exit.
  std::cout << "serving on " << loop.host() << ":" << loop.port()
            << std::endl;
  loop.wait();
  return 0;
}
