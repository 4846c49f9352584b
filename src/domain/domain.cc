#include "domain/domain.h"

#include <algorithm>

namespace mmv {
namespace dom {

Status DomainManager::Register(std::unique_ptr<Domain> domain) {
  const std::string& name = domain->name();
  if (domains_.count(name)) {
    return Status::AlreadyExists("domain " + name + " already registered");
  }
  domains_[name] = std::move(domain);
  return Status::OK();
}

Result<Domain*> DomainManager::Get(const std::string& name) {
  auto it = domains_.find(name);
  if (it == domains_.end()) {
    return Status::NotFound("no domain named " + name);
  }
  return it->second.get();
}

Result<DcaResult> DomainManager::Evaluate(const std::string& domain,
                                          const std::string& function,
                                          const std::vector<Value>& args) {
  return EvaluateAt(domain, function, args, EffectiveTime());
}

Result<DcaResult> DomainManager::EvaluateAt(const std::string& domain,
                                            const std::string& function,
                                            const std::vector<Value>& args,
                                            int64_t tick) {
  MMV_ASSIGN_OR_RETURN(Domain * d, Get(domain));
  call_count_.fetch_add(1, std::memory_order_relaxed);
  return d->CallAt(function, args, tick);
}

Result<FunctionDelta> DomainManager::Delta(const std::string& domain,
                                           const std::string& function,
                                           const std::vector<Value>& args,
                                           int64_t t0, int64_t t1) {
  MMV_ASSIGN_OR_RETURN(DcaResult before, EvaluateAt(domain, function, args, t0));
  MMV_ASSIGN_OR_RETURN(DcaResult after, EvaluateAt(domain, function, args, t1));
  if (before.kind != DcaResultKind::kFinite ||
      after.kind != DcaResultKind::kFinite) {
    return Status::InvalidArgument(
        "Delta requires finite-set results for " + domain + ":" + function);
  }
  FunctionDelta delta;
  // Multiset differences.
  std::vector<bool> matched(before.values.size(), false);
  for (const Value& v : after.values) {
    bool found = false;
    for (size_t i = 0; i < before.values.size(); ++i) {
      if (!matched[i] && before.values[i] == v) {
        matched[i] = true;
        found = true;
        break;
      }
    }
    if (!found) delta.added.push_back(v);
  }
  for (size_t i = 0; i < before.values.size(); ++i) {
    if (!matched[i]) delta.removed.push_back(before.values[i]);
  }
  return delta;
}

}  // namespace dom
}  // namespace mmv
