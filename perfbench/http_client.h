// The load generator's HTTP/1.1 client: one keep-alive connection that
// times every SSE `token` frame as it arrives. The repo's own clients
// either buffer the body (HttpClient) or close after one exchange
// (StreamingHttpCall), and neither stamps frames, so the benchmark
// carries this small one.
#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in the process.
double NowS();

/// What the client saw of one request.
struct Exchange {
  /// False on a connect/send/receive failure or a malformed response.
  bool transport_ok = false;
  std::string transport_error;
  int status = 0;
  double sent_s = 0.0;        // request bytes handed to the socket
  double first_byte_s = 0.0;  // first response body byte received
  double end_s = 0.0;         // response complete
  /// Buffered responses: the whole body.
  std::string body;
  /// Streamed responses: one arrival stamp per `token` frame, and the
  /// data line of the terminal `done` (or `error`) frame.
  std::vector<double> token_s;
  std::string done_data;
  std::string error_data;
};

/// One client connection to 127.0.0.1:port. Reconnects when the server
/// closed the previous exchange (SSE responses always close) or a
/// reused keep-alive socket turns out stale. Not thread-safe.
class Connection {
 public:
  explicit Connection(int port) : port_(port) {}
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Exchange Post(const std::string& path, const std::string& body);
  Exchange Get(const std::string& path);
  void Close();

 private:
  Exchange RoundTrip(const std::string& request);
  bool Connect();
  /// Receives more bytes into buffer_; false on EOF, error or timeout.
  bool Fill();

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
