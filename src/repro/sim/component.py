"""Base class for clocked components."""


class Component:
    """A synchronously clocked element of a METRO network simulation.

    Subclasses implement :meth:`tick`, which is called exactly once per
    simulated clock cycle.  During ``tick`` a component may *read* the
    current outputs of its attached channels and *stage* new words into
    them; staged words only become visible after every component has
    ticked (two-phase update), exactly like registers clocked from a
    single central clock.
    """

    #: Human-readable identifier, assigned by the network builder.
    name = "component"

    def tick(self, cycle):
        """Advance one clock cycle.

        :param cycle: the current cycle number (0-based).
        """
        raise NotImplementedError

    def __repr__(self):
        return "<{} {}>".format(type(self).__name__, self.name)
