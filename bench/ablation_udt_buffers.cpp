// Ablation: UDT protocol buffer sizing on high-BDP links.
//
// The paper (§V-A) had to modify Netty to raise UDT's send/receive buffers
// from the 12 MB default to 100 MB because "on high BDP links the normal
// default values resulted in high packet loss rates on the receiver side".
// This bench sweeps the buffer size on an unpoliced 120 MB/s link at the
// EU2AU RTT (~320 ms, BDP ≈ 38 MB) and reports achieved throughput — the
// design-choice evidence behind that tuning.
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "netsim/topology.hpp"
#include "transport/udt.hpp"

namespace {

using namespace kmsg;
using namespace kmsg::transport;

double measure(std::size_t buffer_bytes, double seconds) {
  sim::Simulator sim;
  netsim::LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 120e6;
  cfg.propagation_delay = Duration::millis(160);
  cfg.queue_capacity_bytes = 4 << 20;
  netsim::Network net(sim, 21);
  auto& a = net.add_host();
  auto& b = net.add_host();
  net.add_duplex_link(a.id(), b.id(), cfg);

  UdtConfig ucfg;
  ucfg.send_buffer_bytes = buffer_bytes;
  ucfg.recv_buffer_bytes = buffer_bytes;
  ucfg.max_rate_bytes_per_sec = 100e6;

  std::shared_ptr<UdtConnection> server;
  std::uint64_t received = 0;
  UdtConnection::Listener listener(b, 90, ucfg, [&](auto conn) {
    server = conn;
    server->set_on_data(
        [&](std::span<const std::uint8_t> d) { received += d.size(); });
  });
  auto client = UdtConnection::connect(a, b.id(), 90, ucfg);
  std::vector<std::uint8_t> chunk(256 * 1024);
  Rng rng(5);
  for (auto& c : chunk) c = static_cast<std::uint8_t>(rng.next());
  auto pump = [&, client] {
    while (client->write(chunk) > 0) {
    }
  };
  client->set_on_connected(pump);
  client->set_on_writable(pump);
  sim.run_until(TimePoint::zero() + Duration::seconds(seconds));
  return static_cast<double>(received) / seconds / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kmsg::bench;
  Flags flags(argc, argv);
  const double seconds = flags.get_double("seconds", 30.0);

  print_header("Ablation", "UDT buffer sizing on a high-BDP link (paper §V-A)");
  print_expectation(
      "Throughput grows with buffer size until the flow window covers the "
      "~38 MB BDP; the 12 MB stock default leaves most of the link idle, "
      "motivating the paper's 100 MB tuning.");

  std::printf("%14s %14s\n", "buffer (MB)", "MB/s");
  for (std::size_t mb : {1, 4, 12, 32, 64, 100}) {
    const double mbps = measure(mb * 1024 * 1024, seconds);
    std::printf("%14zu %14.2f\n", mb, mbps);
  }
  return 0;
}
