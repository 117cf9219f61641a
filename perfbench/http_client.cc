#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdlib>

namespace perfbench {
namespace {

/// Longest silence tolerated from the server before an exchange fails.
constexpr int kRecvTimeoutMs = 30000;

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// Splits complete SSE events off the front of `pending` into `out`.
void DrainSseEvents(std::string* pending, double now, Exchange* out) {
  size_t end;
  while ((end = pending->find("\n\n")) != std::string::npos) {
    const std::string event = pending->substr(0, end);
    pending->erase(0, end + 2);
    std::string type;
    std::string data;
    size_t pos = 0;
    while (pos < event.size()) {
      size_t eol = event.find('\n', pos);
      if (eol == std::string::npos) eol = event.size();
      const std::string line = event.substr(pos, eol - pos);
      if (line.rfind("event: ", 0) == 0) type = line.substr(7);
      if (line.rfind("data: ", 0) == 0) data = line.substr(6);
      pos = eol + 1;
    }
    if (type == "token") {
      out->token_s.push_back(now);
    } else if (type == "done") {
      out->done_data = data;
    } else if (type == "error") {
      out->error_data = data;
    }
  }
}

}  // namespace

double NowS() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool Connection::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool Connection::Fill() {
  pollfd pfd{fd_, POLLIN, 0};
  if (::poll(&pfd, 1, kRecvTimeoutMs) <= 0) return false;
  char buf[16384];
  const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
  if (n <= 0) return false;
  buffer_.append(buf, static_cast<size_t>(n));
  return true;
}

Exchange Connection::Post(const std::string& path, const std::string& body) {
  return RoundTrip("POST " + path +
                   " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   "Content-Type: application/json\r\nContent-Length: " +
                   std::to_string(body.size()) +
                   "\r\nConnection: keep-alive\r\n\r\n" + body);
}

Exchange Connection::Get(const std::string& path) {
  return RoundTrip("GET " + path +
                   " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   "Connection: keep-alive\r\n\r\n");
}

Exchange Connection::RoundTrip(const std::string& request) {
  Exchange out;
  const auto fail = [&](const char* why) {
    Close();
    out.transport_ok = false;
    out.transport_error = why;
    out.end_s = NowS();
    return out;
  };
  // A reused keep-alive socket the server already closed fails before
  // any response byte; that one case is retried on a fresh connection.
  const bool reused = fd_ >= 0;
  for (int attempt = 0; attempt < (reused ? 2 : 1); ++attempt) {
    if (fd_ < 0 && !Connect()) return fail("connect failed");
    out.sent_s = NowS();
    size_t sent = 0;
    bool send_ok = true;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        send_ok = false;
        break;
      }
      sent += static_cast<size_t>(n);
    }
    if (send_ok && (!buffer_.empty() || Fill())) break;
    Close();
    if (attempt + 1 == (reused ? 2 : 1)) return fail("no response");
  }

  size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (buffer_.size() > 65536 || !Fill()) return fail("bad response head");
  }
  if (buffer_.compare(0, 5, "HTTP/") != 0 || head_end < 12) {
    return fail("malformed status line");
  }
  out.status = std::atoi(buffer_.c_str() + 9);
  bool chunked = false;
  bool close_after = false;
  size_t content_length = 0;
  size_t pos = buffer_.find("\r\n") + 2;
  while (pos < head_end) {
    const size_t eol = buffer_.find("\r\n", pos);
    const std::string line = buffer_.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = Lower(line.substr(0, colon));
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (key == "transfer-encoding") chunked = Lower(value) == "chunked";
    if (key == "content-length") {
      content_length = std::strtoull(value.c_str(), nullptr, 10);
    }
    if (key == "connection") close_after = Lower(value) == "close";
  }
  buffer_.erase(0, head_end + 4);

  if (!chunked) {
    while (buffer_.size() < content_length) {
      if (!Fill()) return fail("truncated body");
    }
    out.first_byte_s = out.end_s = NowS();
    out.body = buffer_.substr(0, content_length);
    buffer_.erase(0, content_length);
  } else {
    std::string sse;
    for (;;) {
      size_t line_end;
      while ((line_end = buffer_.find("\r\n")) == std::string::npos) {
        if (!Fill()) return fail("truncated chunk size");
      }
      const size_t size =
          std::strtoull(buffer_.substr(0, line_end).c_str(), nullptr, 16);
      while (buffer_.size() < line_end + 2 + size + 2) {
        if (!Fill()) return fail("truncated chunk");
      }
      const double now = NowS();
      if (out.first_byte_s == 0.0) out.first_byte_s = now;
      if (size == 0) {
        buffer_.erase(0, line_end + 4);
        out.end_s = now;
        break;
      }
      sse.append(buffer_, line_end + 2, size);
      buffer_.erase(0, line_end + 2 + size + 2);
      DrainSseEvents(&sse, now, &out);
    }
  }
  out.transport_ok = true;
  if (close_after) Close();
  return out;
}

}  // namespace perfbench
