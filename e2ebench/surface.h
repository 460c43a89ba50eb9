#ifndef E2EBENCH_SURFACE_H_
#define E2EBENCH_SURFACE_H_

// The two public surfaces the benchmark drives: core::Impliance called in
// process, and the TCP wire through server::ImplianceClient. Both return
// answers in the shapes checks.h compares.

#include <memory>
#include <string>

#include "checks.h"
#include "common/status.h"
#include "core/impliance.h"
#include "server/client.h"

namespace e2ebench {

struct FacetSpec {
  std::string kind;
  std::string facet_field;  // counted, /doc/<facet_field>
  std::string sum_field;    // summed, /doc/<sum_field>
};

class Surface {
 public:
  virtual ~Surface() = default;

  virtual impliance::Status Get(uint64_t id, GetAnswer* out) = 0;
  virtual impliance::Status Sql(const std::string& sql, SqlAnswer* out) = 0;
  virtual impliance::Status Search(const std::string& keywords, size_t k,
                                   SearchAnswer* out) = 0;
  virtual impliance::Status Facet(const FacetSpec& spec, FacetAnswer* out) = 0;
  virtual impliance::Status Ingest(const std::string& kind,
                                   const std::string& raw, uint64_t* id) = 0;
  // Relative tolerance on numbers this surface renders.
  virtual double rel_tol() const = 0;
};

class InProcessSurface : public Surface {
 public:
  explicit InProcessSurface(impliance::core::Impliance* impliance)
      : impliance_(impliance) {}

  impliance::Status Get(uint64_t id, GetAnswer* out) override;
  impliance::Status Sql(const std::string& sql, SqlAnswer* out) override;
  impliance::Status Search(const std::string& keywords, size_t k,
                           SearchAnswer* out) override;
  impliance::Status Facet(const FacetSpec& spec, FacetAnswer* out) override;
  impliance::Status Ingest(const std::string& kind, const std::string& raw,
                           uint64_t* id) override;
  // SUM results vary in the last bits with morsel order.
  double rel_tol() const override { return 1e-9; }

 private:
  impliance::core::Impliance* impliance_;
};

class WireSurface : public Surface {
 public:
  explicit WireSurface(std::unique_ptr<impliance::server::ImplianceClient> client)
      : client_(std::move(client)) {}

  impliance::Status Get(uint64_t id, GetAnswer* out) override;
  impliance::Status Sql(const std::string& sql, SqlAnswer* out) override;
  impliance::Status Search(const std::string& keywords, size_t k,
                           SearchAnswer* out) override;
  impliance::Status Facet(const FacetSpec& spec, FacetAnswer* out) override;
  impliance::Status Ingest(const std::string& kind, const std::string& raw,
                           uint64_t* id) override;
  // The wire renders doubles with printf's %g: six significant digits.
  double rel_tol() const override { return 1e-5; }

  impliance::server::ImplianceClient* client() { return client_.get(); }

 private:
  std::unique_ptr<impliance::server::ImplianceClient> client_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SURFACE_H_
