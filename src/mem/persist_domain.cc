#include "mem/persist_domain.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/trace.hh"

namespace nvo
{

void
PersistDomain::Journal::attachTo(PersistDomain *to)
{
    if (domain) {
        auto &list = domain->journals;
        auto it = std::find(list.begin(), list.end(), this);
        nvo_assert(it != list.end(), "persist: detaching a stranger");
        list.erase(it);
    }
    domain = to;
    if (domain)
        domain->journals.push_back(this);
}

void
PersistDomain::barrier()
{
    if (!armed_)
        return;
    NVO_TRACE_NOW(Fault, PersistBarrier, obs::trackNvm, inFlight_, 0);
    ++barriers_;
    durable_ += inFlight_;
    inFlight_ = 0;
    for (Journal *j : journals)
        j->commit();
}

void
PersistDomain::truncateToDurable()
{
    NVO_TRACE_NOW(Fault, PersistTruncate, obs::trackNvm, inFlight_, 0);
    truncated_ += inFlight_;
    inFlight_ = 0;
    for (Journal *j : journals)
        j->unwind();
}

} // namespace nvo
