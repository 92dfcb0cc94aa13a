// Fuzz harness: HTTP request-head parsing (net/http_server.h).
//
// Throws arbitrary bytes at ParseHttpRequestHead — the exact function the
// server runs on every collected request head before the 405/handler
// policy — and checks the parse postconditions the routing layer relies
// on: non-empty method and path, the query split off the path, a query
// that percent-decodes whole, and Param() lookups total over it.

#include <cstdint>
#include <string>
#include <string_view>

#include "fuzz/fuzz_input.h"
#include "net/http_server.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (64u << 10)) return 0;
  const std::string head(reinterpret_cast<const char*>(data), size);

  ldpm::net::HttpRequest request;
  if (!ldpm::net::ParseHttpRequestHead(head, &request).ok()) return 0;

  LDPM_FUZZ_ASSERT(!request.method.empty(), "parsed an empty method");
  LDPM_FUZZ_ASSERT(!request.path.empty(), "parsed an empty path");
  LDPM_FUZZ_ASSERT(request.path.find('?') == std::string::npos,
                   "query string left inside the path");

  // Param() must be total over whatever query came through — including
  // keys that appear in it and keys that cannot.
  (void)request.Param("collection");
  (void)request.Param("");
  const size_t amp = request.query.find('&');
  const std::string_view first_pair =
      amp == std::string::npos ? std::string_view(request.query)
                               : std::string_view(request.query).substr(0, amp);
  const size_t eq = first_pair.find('=');
  // An accepted query has only well-formed escapes, so its first name
  // decodes, and the decoded name finds (at least) the first pair.
  const auto first_key = ldpm::net::PercentDecode(
      eq == std::string_view::npos ? first_pair : first_pair.substr(0, eq));
  LDPM_FUZZ_ASSERT(first_key.has_value(),
                   "accepted query holds a malformed escape");
  if (!first_key->empty()) {
    LDPM_FUZZ_ASSERT(request.Param(*first_key).has_value(),
                     "first query key did not resolve");
  }
  return 0;
}
