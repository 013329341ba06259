#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/rules/ree.h"
#include "src/storage/schema.h"

namespace rock::rules {

/// Parses one REE++ from the textual rule language (the inverse of
/// Ree::ToString). The grammar, with parts joined by " ^ ":
///
///   Relation(t0) ^ ... ^ vertex(x0, G) ^ X-parts -> consequence
///
/// Predicate forms:
///   t0.attr = 'literal'        (also != < <= > >=, numbers, @epoch times)
///   t0.attr = t1.attr
///   t0.eid = t1.eid
///   null(t0.attr)
///   MER(t0[com], t1[com])                 -- ML pair predicate
///   t0 <=[status] t1    /   t0 <[status] t1      -- temporal ⪯ / ≺
///   Mrank(t0, t1, <=[status])             -- ranker-backed temporal
///   HER(t0, x0)
///   match(t0.location, x0.(LocationAt))
///   t0.location = val(x0.(LocationAt))
///   Mc(t0[a,b], t0.c) >= 0.8              -- correlation
///   Mc(t0[a,b], t0.c='v') >= 0.8
///   t0.price = Md(t0[a,b], price)         -- ML value prediction
///   t0.total = poly(0 + 1*t0.amount + 2*t0.qty*t0.price; 0.02)
///                                         -- polynomial (also !=)
///
/// Tuple variables must be t0, t1, ...; vertex variables x0, x1, ....
Result<Ree> ParseRee(std::string_view text, const DatabaseSchema& schema);

/// Parses a newline-separated rule list, skipping blank lines and lines
/// starting with '#'.
Result<std::vector<Ree>> ParseRules(std::string_view text,
                                    const DatabaseSchema& schema);

}  // namespace rock::rules

